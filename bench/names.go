package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// The schema test holds the file and these tables to the same names.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd are the six gated metrics, reported by every workload with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ns_per_day", "ns/day", "higher", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"force_rel_err", "ratio", "lower", 0.10},
	{"energy_drift_rel", "ratio", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// obsStages are the in-situ recorder stages reported as obs.stage.<name>_ms
// beside the probe numbers (JSON names of internal/obs stages that both
// engines record).
var obsStages = []string{
	"charge_assign", "restrict", "grid_conv", "top_spme", "prolong",
	"back_interp", "mesh_total", "short_range", "neighbor_build",
	"constraint", "force_merge", "integrate", "step_total",
}

// perLayer are the ungated layer metrics of the traced pass, layer =
// package name. Every traced run reports every one of them.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "nonbond.pair_ms", Unit: "ms", Better: "lower"},
		{Name: "nonbond.list_pairs", Unit: "count", Better: "lower"},
		{Name: "nonbond.ns_per_pair", Unit: "ns", Better: "lower"},
		{Name: "nonbond.cellpath_ms", Unit: "ms", Better: "lower"},
		{Name: "nonbond.rebuild_ms", Unit: "ms", Better: "lower"},
		{Name: "nonbond.rebuilds_per_100_steps", Unit: "count", Better: "lower"},
		{Name: "celllist.rebuild_us", Unit: "us", Better: "lower"},
		{Name: "celllist.cells_per_axis", Unit: "count", Better: "higher"},
		{Name: "pmesh.assign_ms", Unit: "ms", Better: "lower"},
		{Name: "pmesh.interp_ms", Unit: "ms", Better: "lower"},
		{Name: "pmesh.ns_per_spread_point", Unit: "ns", Better: "lower"},
		{Name: "grid.conv_ms", Unit: "ms", Better: "lower"},
		{Name: "grid.ns_per_point_tap", Unit: "ns", Better: "lower"},
		{Name: "grid.restrict_us", Unit: "us", Better: "lower"},
		{Name: "grid.prolong_us", Unit: "us", Better: "lower"},
		{Name: "core.long_range_ms", Unit: "ms", Better: "lower"},
		{Name: "core.parts_over_whole", Unit: "ratio", Better: "lower"},
		{Name: "fft.r2c_us", Unit: "us", Better: "lower"},
		{Name: "fft.c2r_us", Unit: "us", Better: "lower"},
		{Name: "spme.top_level_us", Unit: "us", Better: "lower"},
		{Name: "spme.long_range_ms", Unit: "ms", Better: "lower"},
		{Name: "msm.long_range_ms", Unit: "ms", Better: "lower"},
		{Name: "ewald.excl_corr_us", Unit: "us", Better: "lower"},
		{Name: "constraint.settle_us", Unit: "us", Better: "lower"},
		{Name: "md.ff_compute_ms", Unit: "ms", Better: "lower"},
		{Name: "md.step_ms_p95", Unit: "ms", Better: "lower"},
		{Name: "md.first_step_ms", Unit: "ms", Better: "lower"},
		{Name: "md.allocs_per_step", Unit: "count", Better: "lower"},
		{Name: "par.dispatch_us", Unit: "us", Better: "lower"},
		{Name: "solver.new_tme_ms", Unit: "ms", Better: "lower"},
		{Name: "solver.new_spme_ms", Unit: "ms", Better: "lower"},
		{Name: "solver.new_msm_ms", Unit: "ms", Better: "lower"},
		{Name: "dist.plan_ms", Unit: "ms", Better: "lower"},
		{Name: "rank.new_ms", Unit: "ms", Better: "lower"},
		{Name: "rank.step_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "rank.step_ms_p95", Unit: "ms", Better: "lower"},
		{Name: "rank.comm_bytes_per_step", Unit: "bytes", Better: "lower"},
		{Name: "rank.speedup_vs_serial", Unit: "ratio", Better: "higher"},
		{Name: "rank.allocs_per_step", Unit: "count", Better: "lower"},
		{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.first_step_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.delivered_step_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.job_s_p50", Unit: "s", Better: "lower"},
		{Name: "serve.job_s_p90", Unit: "s", Better: "lower"},
		{Name: "serve.jobs_per_s", Unit: "1/s", Better: "higher"},
		{Name: "serve.daemon_step_ms_p99", Unit: "ms", Better: "lower"},
		{Name: "serve.sched_overhead_frac", Unit: "ratio", Better: "lower"},
		{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
		{Name: "ckpt.save_us", Unit: "us", Better: "lower"},
		{Name: "ckpt.load_us", Unit: "us", Better: "lower"},
		{Name: "ckpt.bytes", Unit: "bytes", Better: "lower"},
		{Name: "tune.plan_us", Unit: "us", Better: "lower"},
		{Name: "tune.pred_ms_over_meas", Unit: "ratio", Better: "lower"},
		{Name: "tune.pred_err_over_meas", Unit: "ratio", Better: "lower"},
		{Name: "water.gen_s", Unit: "s", Better: "lower"},
		{Name: "obs.overhead_frac", Unit: "ratio", Better: "lower"},
	}
	for _, st := range obsStages {
		defs = append(defs, metricDef{Name: "obs.stage." + st + "_ms", Unit: "ms", Better: "lower"})
	}
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // one per failed operation; printed, not serialised
}

// ops counts the operations a run attempted and the ones that failed: a
// step that errors or yields a non-finite energy, a job that does not end
// done, a hash that does not match, an accuracy gate that does not hold.
type ops struct {
	attempted, failed int
	notes             []string
}

// check counts one operation; when ok is false it also counts a failure
// and keeps the note for the report.
func (o *ops) check(ok bool, note string) {
	o.attempted++
	if !ok {
		o.failed++
		o.notes = append(o.notes, note)
	}
}

// newResult packs values into a result carrying exactly the metrics of
// defs; a missing value is a harness bug and is reported as a failure.
func newResult(o *ops, defs []metricDef, values map[string]float64) result {
	res := result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			o.check(false, "metric "+d.Name+" was not measured")
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	res.Attempted, res.Failed, res.Correct, res.notes = o.attempted, o.failed, o.failed == 0, o.notes
	return res
}
