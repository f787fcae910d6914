package nlp

import (
	"errors"
	"sort"

	"avfda/internal/ontology"
	"avfda/internal/par"
)

// TieBreak selects how the classifier resolves equal vote counts between
// tags.
type TieBreak int

// Tie-break policies (the ablation benches compare them).
const (
	// TieBreakPriority prefers the more specific tag per tagPriority.
	TieBreakPriority TieBreak = iota + 1
	// TieBreakFirstMatch prefers the lowest-numbered tag (arbitrary but
	// deterministic), modeling a naive implementation.
	TieBreakFirstMatch
)

// tagPriority orders tags from most to least specific for tie-breaking:
// narrow hardware/watchdog vocabulary outranks broad environment phrasing.
// The compiled index names tags by their position in this array, and only
// tags listed here ever vote.
var tagPriority = [...]ontology.Tag{
	ontology.TagHangCrash,
	ontology.TagNetwork,
	ontology.TagSensor,
	ontology.TagComputerSystem,
	ontology.TagSoftware,
	ontology.TagAVControllerSystem,
	ontology.TagAVControllerML,
	ontology.TagIncorrectBehaviorPrediction,
	ontology.TagRecognitionSystem,
	ontology.TagPlanner,
	ontology.TagDesignBug,
	ontology.TagEnvironment,
}

// priorityPos returns t's position in tagPriority, or -1 if t never votes.
func priorityPos(t ontology.Tag) int {
	for i, p := range tagPriority {
		if p == t {
			return i
		}
	}
	return -1
}

// Options configures a Classifier.
type Options struct {
	// Stem toggles Porter stemming (ablation: accuracy drops without it).
	Stem bool
	// TieBreak selects the tie resolution policy.
	TieBreak TieBreak
	// BigramWeight is the vote weight of a matched bigram relative to a
	// matched unigram (default 2).
	BigramWeight int
}

// DefaultOptions returns the configuration used for the paper reproduction.
func DefaultOptions() Options {
	return Options{Stem: true, TieBreak: TieBreakPriority, BigramWeight: 2}
}

// Classifier assigns fault tags to disengagement cause texts by keyword
// voting against a failure dictionary.
type Classifier struct {
	tok  *Tokenizer
	opts Options
	// index is the compiled dictionary: each normalized keyword, either a
	// token or two adjacent tokens joined by a space, maps to its entry in
	// keywords. Tokens never contain a space, so unigrams and bigrams share
	// one key space.
	index    map[string]int32
	keywords []keyword
}

// keyword is one compiled dictionary key and the tags it votes for.
type keyword struct {
	text string
	// tags holds the voting tags' tagPriority positions, ascending.
	tags []uint8
}

// Result is one classification outcome.
type Result struct {
	Tag      ontology.Tag
	Category ontology.Category
	// Score is the winning vote count (0 for Unknown-T).
	Score int
	// Matched lists the dictionary keywords that voted for the winning
	// tag, sorted.
	Matched []string
}

// NewClassifier compiles dict into a voting classifier. The dictionary is
// normalized through the classifier's tokenizer, so stemming configuration
// applies consistently to both dictionary and inputs.
func NewClassifier(dict *Dictionary, opts Options) (*Classifier, error) {
	if dict == nil {
		return nil, errors.New("nlp: nil dictionary")
	}
	if opts.BigramWeight <= 0 {
		opts.BigramWeight = 2
	}
	if opts.TieBreak == 0 {
		opts.TieBreak = TieBreakPriority
	}
	c := &Classifier{
		tok:   &Tokenizer{Stem: opts.Stem},
		opts:  opts,
		index: make(map[string]int32),
	}
	// Walking tags in priority order appends each keyword's positions in
	// ascending order.
	for pos, tag := range tagPriority {
		for _, phrase := range dict.Phrases(tag) {
			toks := c.tok.Tokens(phrase)
			for _, t := range toks {
				c.compile(t, pos)
			}
			for _, bg := range bigramsOf(toks) {
				c.compile(bg, pos)
			}
		}
		// Mined phrases vote only as exact bigrams (see Dictionary).
		for _, phrase := range dict.BigramOnlyPhrases(tag) {
			for _, bg := range bigramsOf(c.tok.Tokens(phrase)) {
				c.compile(bg, pos)
			}
		}
	}
	return c, nil
}

// compile records that key votes for the tag at priority position pos.
func (c *Classifier) compile(key string, pos int) {
	id, ok := c.index[key]
	if !ok {
		id = int32(len(c.keywords))
		c.index[key] = id
		c.keywords = append(c.keywords, keyword{text: key})
	}
	kw := &c.keywords[id]
	if n := len(kw.tags); n == 0 || kw.tags[n-1] != uint8(pos) {
		kw.tags = append(kw.tags, uint8(pos))
	}
}

// votesFor reports whether key is a compiled keyword that votes for tag.
func (c *Classifier) votesFor(key string, tag ontology.Tag) bool {
	id, ok := c.index[key]
	return ok && hasPos(c.keywords[id].tags, priorityPos(tag))
}

// hasPos reports whether tags holds priority position pos.
func hasPos(tags []uint8, pos int) bool {
	for _, p := range tags {
		if int(p) == pos {
			return true
		}
	}
	return false
}

// Classify maps one cause text to a fault tag and category. Texts sharing
// no keyword with any tag return Unknown-T / Unknown-C with score 0.
func (c *Classifier) Classify(text string) Result {
	return c.classify(c.tok.Tokens(text))
}

// classify runs the vote over one text's tokens: every distinct token and
// adjacent-token bigram found in the index adds its weight to each tag it
// votes for, and the highest score wins under the tie-break policy.
func (c *Classifier) classify(tokens []string) Result {
	var scores [len(tagPriority)]int
	var hitBuf [16]int32
	hits := hitBuf[:0]
	for _, t := range tokens {
		if id, ok := c.index[t]; ok {
			hits = c.vote(id, 1, hits, &scores)
		}
	}
	var buf [64]byte
	for i := 0; i+1 < len(tokens); i++ {
		bg := append(append(append(buf[:0], tokens[i]...), ' '), tokens[i+1]...)
		if id, ok := c.index[string(bg)]; ok {
			hits = c.vote(id, c.opts.BigramWeight, hits, &scores)
		}
	}

	win, winRank := -1, 0
	for pos, tag := range tagPriority {
		score := scores[pos]
		if score == 0 {
			continue
		}
		rank := pos
		if c.opts.TieBreak == TieBreakFirstMatch {
			rank = int(tag)
		}
		if win < 0 || score > scores[win] || (score == scores[win] && rank < winRank) {
			win, winRank = pos, rank
		}
	}
	if win < 0 {
		return Result{Tag: ontology.TagUnknownT, Category: ontology.CategoryUnknownC}
	}
	res := Result{
		Tag:      tagPriority[win],
		Category: ontology.CategoryOf(tagPriority[win]),
		Score:    scores[win],
	}
	for _, id := range hits {
		if kw := &c.keywords[id]; hasPos(kw.tags, win) {
			res.Matched = append(res.Matched, kw.text)
		}
	}
	sort.Strings(res.Matched)
	return res
}

// vote adds weight to the score of every tag keyword id votes for, unless
// id already voted for this text, and returns the updated hit list.
func (c *Classifier) vote(id int32, weight int, hits []int32, scores *[len(tagPriority)]int) []int32 {
	for _, h := range hits {
		if h == id {
			return hits
		}
	}
	for _, pos := range c.keywords[id].tags {
		scores[pos] += weight
	}
	return append(hits, id)
}

// ClassifyAll maps each text through Classify across a bounded worker
// pool (workers <= 0 selects GOMAXPROCS, 1 runs in order on the caller's
// goroutine). Each distinct text is classified once and the results fan
// back out in input order; equal texts share one Result, Matched slice
// included. The classifier is read-only after construction and Classify is
// a pure function of its input, so results are identical at any worker
// count.
func (c *Classifier) ClassifyAll(texts []string, workers int) []Result {
	uniq, _, slot := distinct(texts)
	res := make([]Result, len(uniq))
	par.Each(len(uniq), workers, func(i int) {
		res[i] = c.Classify(uniq[i])
	})
	out := make([]Result, len(texts))
	for i, s := range slot {
		out[i] = res[s]
	}
	return out
}

// distinct returns the distinct texts in first-occurrence order, how many
// times each occurs, and for every input the index of its distinct text.
func distinct(texts []string) (uniq []string, count []int, slot []int) {
	index := make(map[string]int)
	slot = make([]int, len(texts))
	for i, t := range texts {
		s, ok := index[t]
		if !ok {
			s = len(uniq)
			index[t] = s
			uniq = append(uniq, t)
			count = append(count, 0)
		}
		count[s]++
		slot[i] = s
	}
	return uniq, count, slot
}

// ExpandOptions configures dictionary expansion passes.
type ExpandOptions struct {
	// MinCount is the minimum corpus frequency for a candidate bigram
	// (default 5).
	MinCount int
	// MinConcentration is the minimum fraction of a bigram's occurrences
	// that must fall in texts already assigned to a single tag (default
	// 0.8).
	MinConcentration float64
	// Passes is the number of classify-extract iterations (default 2),
	// mirroring the paper's "several passes over the dataset".
	Passes int
}

func (o ExpandOptions) withDefaults() ExpandOptions {
	if o.MinCount <= 0 {
		o.MinCount = 5
	}
	if o.MinConcentration <= 0 {
		o.MinConcentration = 0.8
	}
	if o.Passes <= 0 {
		o.Passes = 2
	}
	return o
}

// Expand grows dict by mining the corpus: each pass classifies every text
// with the current dictionary, then promotes bigrams that are frequent and
// concentrated in one tag's texts into that tag's phrase list. It returns
// the expanded dictionary (the input is not modified) and the number of
// phrases added.
//
// The corpus is tokenized once. Each pass classifies each distinct text
// once and weights its bigram counts by the number of times the text
// occurs, which counts exactly what classifying every copy would.
func Expand(dict *Dictionary, corpus []string, opts Options, eo ExpandOptions) (*Dictionary, int, error) {
	eo = eo.withDefaults()
	tok := &Tokenizer{Stem: opts.Stem}
	texts, mult, _ := distinct(corpus)
	tokens := make([][]string, len(texts))
	bigrams := make([][]string, len(texts))
	// totals counts every bigram occurrence across the corpus; it does not
	// depend on the dictionary, so all passes share it.
	totals := make(map[string]int)
	for i, text := range texts {
		tokens[i] = tok.Tokens(text)
		bigrams[i] = bigramsOf(tokens[i])
		for _, bg := range bigrams[i] {
			totals[bg] += mult[i]
		}
	}
	out := dict.Clone()
	added := 0
	for pass := 0; pass < eo.Passes; pass++ {
		cls, err := NewClassifier(out, opts)
		if err != nil {
			return nil, 0, err
		}
		// bigram -> tag -> count over texts assigned to that tag.
		counts := make(map[string]map[ontology.Tag]int)
		for i := range texts {
			res := cls.classify(tokens[i])
			if res.Tag == ontology.TagUnknownT {
				continue
			}
			for _, bg := range bigrams[i] {
				m := counts[bg]
				if m == nil {
					m = make(map[ontology.Tag]int)
					counts[bg] = m
				}
				m[res.Tag] += mult[i]
			}
		}
		// Promote concentrated bigrams not already known, deterministically.
		candidates := make([]string, 0, len(counts))
		for bg := range counts {
			candidates = append(candidates, bg)
		}
		sort.Strings(candidates)
		passAdded := 0
		for _, bg := range candidates {
			if totals[bg] < eo.MinCount {
				continue
			}
			var bestTag ontology.Tag
			bestCount := 0
			for tag, n := range counts[bg] {
				if n > bestCount || (n == bestCount && tag < bestTag) {
					bestTag, bestCount = tag, n
				}
			}
			if float64(bestCount)/float64(totals[bg]) < eo.MinConcentration {
				continue
			}
			if cls.votesFor(bg, bestTag) {
				continue
			}
			out.AddBigramOnly(bestTag, bg)
			passAdded++
		}
		added += passAdded
		if passAdded == 0 {
			break
		}
	}
	return out, added, nil
}
