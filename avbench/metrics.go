package main

import (
	"fmt"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd lists the metrics of the untraced run, which a user of the
// system sees. latency_tail_ms is the workload's tail percentile (see
// workload.tail).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
	{"snapshot_bytes_per_study", "bytes", "lower"},
}

// perLayer lists the metrics of the traced run, one group per layer.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	for _, op := range defaultMix {
		switch {
		case strings.HasPrefix(op.name, "table-"):
			add("report.us."+op.name, "us", "lower")
		default:
			add("query.us."+op.name, "us", "lower")
		}
	}
	for _, op := range defaultMix {
		if rowsOp(op.name) {
			add("query.rows_examined_per_returned."+op.name, "ratio", "lower")
		}
	}
	for _, op := range defaultMix {
		add("encode.us."+op.name, "us", "lower")
		add("encode.bytes."+op.name, "bytes", "lower")
	}
	add("cache.hit_ratio", "ratio", "higher")
	add("cache.get_us.hit", "us", "lower")
	add("cache.get_us.map", "us", "lower")
	add("cache.get_us.build", "us", "lower")
	add("cache.evictions_per_req", "ratio", "lower")
	add("snapshot2.open_us", "us", "lower")
	add("snapshot2.database_us", "us", "lower")
	add("snapshot2.write_us", "us", "lower")
	add("snapshot2.bytes", "bytes", "lower")
	for _, st := range pipelineStages {
		add("pipeline."+st+"_ms", "ms", "lower")
	}
	add("pipeline.events", "count", "higher")
	add("query.new_ms", "ms", "lower")
	for _, op := range defaultMix {
		add("serve.handler_us."+op.name, "us", "lower")
	}
	add("serve.gzip_us", "us", "lower")
	add("http.hop_us", "us", "lower")
	add("runtime.alloc_bytes_per_req", "bytes", "lower")
	add("runtime.gc_cycles_per_1k_req", "count", "lower")
	add("gen.lag_max_ms", "ms", "lower")
	add("trace.throughput_ratio", "ratio", "higher")
	return defs
}()

// pipelineStages are the stages pipeline.Result.Stages times, in order.
var pipelineStages = []string{"synth", "render", "ocr", "parse", "expand", "classify", "build"}

// layerValues groups the trace into per-layer samples: the self time of
// each span by kind, the size each span carried, and each recorded sample.
func layerValues(tr *tracer) map[string][]float64 {
	self := selfTimes(tr.spans)
	reqOp := make(map[int64]string)
	for _, s := range tr.spans {
		if s.Name == "request" {
			reqOp[s.ID] = s.Op
		}
	}
	vals := make(map[string][]float64)
	put := func(name string, v float64) { vals[name] = append(vals[name], v) }
	for _, s := range tr.spans {
		us := float64(self[s.ID]) / 1e3
		kind, sub, _ := strings.Cut(s.Name, ".")
		switch {
		case s.Name == "request":
			put("http.hop_us", us)
		case s.Name == "serve.handler":
			put("serve.handler_us."+reqOp[s.Req], us)
		case s.Name == "serve.gzip":
			put("serve.gzip_us", us)
		case s.Name == "query.new":
			put("query.new_ms", us/1e3)
		case s.Name == "pipeline.run":
			put("pipeline.events", float64(s.Count))
		case kind == "pipeline":
			put(s.Name+"_ms", us/1e3)
		case kind == "query" || kind == "report":
			put(kind+".us."+sub, us)
		case kind == "encode":
			put("encode.us."+sub, us)
			put("encode.bytes."+sub, float64(s.Count))
		case kind == "cache":
			put("cache.get_us."+strings.TrimPrefix(sub, "get."), us)
		case kind == "snapshot2":
			put(s.Name+"_us", us)
			if sub == "write" {
				put("snapshot2.bytes", float64(s.Count))
			}
		}
	}
	for _, s := range tr.samples {
		put(s.Name, s.Value)
	}
	return vals
}

// perLayerMetrics returns every per-layer metric: medians of the traced
// values, plus the values measured outside the trace in extra. A metric
// with no samples is an error: every workload's set-up and probe reach
// every layer.
func perLayerMetrics(tr *tracer, extra map[string]float64) (map[string]float64, error) {
	vals := layerValues(tr)
	out := make(map[string]float64, len(perLayer))
	var missing []string
	for _, d := range perLayer {
		if v, ok := extra[d.name]; ok {
			out[d.name] = v
			continue
		}
		if len(vals[d.name]) == 0 {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = median(vals[d.name])
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("trace has no samples for %s", strings.Join(missing, ", "))
	}
	return out, nil
}
