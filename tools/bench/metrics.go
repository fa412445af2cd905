package main

// The metric and workload registry. BENCHMARK.json at the repo root is
// the same table in the driver's schema; the smoke test asserts the two
// are equal, so a name exists in exactly one spelling.

// metricDef is one row of BENCHMARK.json's end_to_end / per_layer lists.
// Bound is the relative worsening a later change may cause before it
// counts as a regression (end-to-end metrics only).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees. Every workload emits
// every one of them on an untraced run; op and the unit of work are per
// workload (see workloadDef.Op / Work).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.10},
	{"work_per_s", "1/s", "higher", 0.10},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
}

// workloadDef names one workload, why it exists, and what its op and
// unit of work are.
type workloadDef struct {
	Name string
	Why  string
	Op   string // what op_p50_ms times
	Work string // what work_per_s counts
	run  func(e *env) (*outcome, error)
}

var workloads = []workloadDef{
	{"pic_trad", "paper-scale traditional PIC run: particle kernels do all the work, nn/tensor none - the control for every DL-side optimisation",
		"pic.New + 200 x Step + growth fit", "PIC steps", runPicTrad},
	{"pic_dl", "the identical scenario with the trained MLP as field solver: phase-space binning and batch-1 inference dominate, deposit/Poisson do nothing",
		"pic.New + 200 x Step + growth fit", "PIC steps", runPicDL},
	{"train_mlp", "time to a trained solver: batch-64 NN/NT/TN GEMMs, the other way nn/tensor are used, so a kernel tuned for inference that costs training shows",
		"one training epoch", "training samples", runTrainMLP},
	{"campaign_local", "journaled scenario x method campaign on the in-process sweep pool: sweep, campaign journal and batched inference, no HTTP",
		"one campaign.Run of 24 cells", "campaign cells", runCampaignLocal},
	{"fleet_campaign", "the same kind of campaign through a coordinator daemon and a worker fleet over loopback HTTP: dispatch, leases, bundle cache and queueing",
		"one job, POST /campaigns to done", "campaign cells", runFleetCampaign},
}

// perLayer lists the single-layer metrics of the traced run; layer =
// package. Every workload emits every name: a layer the workload does
// not execute reads 0, which is the "no change" side of the prediction
// table in README.md.
var perLayer = []metricDef{
	// pic
	{Name: "pic.step_us", Unit: "us", Better: "lower"},
	{Name: "pic.step_p99_us", Unit: "us", Better: "lower"},
	{Name: "pic.new_ms", Unit: "ms", Better: "lower"},
	{Name: "pic.particle_steps", Unit: "count", Better: "higher"},
	{Name: "pic.step_unaccounted_pct", Unit: "%", Better: "lower"},
	// shared particle kernels and diagnostics
	{Name: "interp.gather_us", Unit: "us", Better: "lower"},
	{Name: "mover.kick_us", Unit: "us", Better: "lower"},
	{Name: "mover.drift_us", Unit: "us", Better: "lower"},
	{Name: "diag.sample_us", Unit: "us", Better: "lower"},
	{Name: "diag.fit_ms", Unit: "ms", Better: "lower"},
	// traditional field solve
	{Name: "interp.deposit_us", Unit: "us", Better: "lower"},
	{Name: "interp.deposit_bytes", Unit: "B", Better: "lower"},
	{Name: "poisson.solve_us", Unit: "us", Better: "lower"},
	// DL field solve
	{Name: "phasespace.bin_us", Unit: "us", Better: "lower"},
	{Name: "phasespace.normalize_us", Unit: "us", Better: "lower"},
	{Name: "phasespace.nonzero_share", Unit: "ratio", Better: "lower"},
	{Name: "nn.predict1_us", Unit: "us", Better: "lower"},
	{Name: "nn.predict1_macs", Unit: "count", Better: "lower"},
	{Name: "core.compute_field_us", Unit: "us", Better: "lower"},
	{Name: "tensor.gemm_nn_b1_us", Unit: "us", Better: "lower"},
	{Name: "core.dl_over_trad_step", Unit: "ratio", Better: "lower"},
	// corpus and training
	{Name: "dataset.generate_s", Unit: "s", Better: "lower"},
	{Name: "dataset.prep_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.samples", Unit: "count", Better: "higher"},
	{Name: "nn.fit_s", Unit: "s", Better: "lower"},
	{Name: "nn.epoch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.fit_macs_per_sample", Unit: "count", Better: "lower"},
	{Name: "nn.val_mae", Unit: "ratio", Better: "lower"},
	{Name: "tensor.gemm_nn_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.gemm_nt_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.gemm_tn_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	// one campaign cell and what it needs
	{Name: "sweep.cell_trad_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.cell_oracle_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.cell_mlp_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.pool_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "nn.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bundle_load_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bundle_save_ms", Unit: "ms", Better: "lower"},
	// campaign journal and batched inference
	{Name: "campaign.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "campaign.journal_bytes_per_cell", Unit: "B", Better: "lower"},
	{Name: "campaign.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.unaccounted_pct", Unit: "%", Better: "lower"},
	{Name: "campaign.journal_load_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.resume_ms", Unit: "ms", Better: "lower"},
	{Name: "batch.requests", Unit: "count", Better: "lower"},
	{Name: "batch.flushes", Unit: "count", Better: "lower"},
	{Name: "batch.avg_batch", Unit: "count", Better: "higher"},
	// daemon
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.first_cell_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.status_us", Unit: "us", Better: "lower"},
	{Name: "serve.plan_train_ms", Unit: "ms", Better: "lower"},
	// lease protocol and workers
	{Name: "dist.claim_us", Unit: "us", Better: "lower"},
	{Name: "dist.heartbeat_us", Unit: "us", Better: "lower"},
	{Name: "dist.complete_us", Unit: "us", Better: "lower"},
	{Name: "dist.bundle_us", Unit: "us", Better: "lower"},
	{Name: "dist.claims", Unit: "count", Better: "lower"},
	{Name: "dist.claim_useful_share", Unit: "ratio", Better: "higher"},
	{Name: "dist.heartbeats", Unit: "count", Better: "lower"},
	{Name: "dist.completes", Unit: "count", Better: "higher"},
	{Name: "dist.bundle_fetches", Unit: "count", Better: "lower"},
	{Name: "dist.bundle_bytes", Unit: "B", Better: "lower"},
	{Name: "dist.cell_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.worker_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "dist.unaccounted_pct", Unit: "%", Better: "lower"},
	// the instrument itself
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
