package kde

import "selest/internal/telemetry"

// Query-path telemetry. The paper's O(log n + k) refinement lives or
// dies by how much of a query is answered by binary-search counting
// (samples whose kernel lies entirely inside the range contribute
// exactly 1) versus explicit O(k) primitive evaluations at the query
// edges; these counters expose that ratio in production. Handles are
// captured at init so the hot path is an atomic load (the Enabled gate)
// plus at most three uncontended atomic adds per query — the
// instrumented-vs-bare benchmark pair bounds the total below 5%.
var (
	// kdeQueries counts Selectivity evaluations served by kernel
	// estimators (boundary strips included).
	kdeQueries = telemetry.Default.Counter("selest_kde_queries_total")
	// kdeFastPathSamples counts samples answered by the binary-search
	// fast path — full contributions never evaluated explicitly.
	kdeFastPathSamples = telemetry.Default.Counter("selest_kde_fastpath_samples_total")
	// kdeEdgeEvals counts samples evaluated explicitly: CDF primitives in
	// the edge windows plus boundary-kernel strip integrals.
	kdeEdgeEvals = telemetry.Default.Counter("selest_kde_edge_evals_total")
	// kdeMomentQueries counts queries answered by the prefix-moment closed
	// form (moments.go): O(log n) with zero per-sample evaluations. The gap
	// kdeQueries − kdeMomentQueries is the edge-scan fallback traffic
	// (non-polynomial kernels or untrusted magnitudes).
	kdeMomentQueries = telemetry.Default.Counter("selest_kde_moment_queries_total")
	// kdeBatchCalls counts SelectivityBatch invocations; kdeBatchQueries
	// counts the queries they carried. The ratio is the achieved batching
	// factor — the number of queries amortising each shared edge sweep.
	kdeBatchCalls   = telemetry.Default.Counter("selest_kde_batch_calls_total")
	kdeBatchQueries = telemetry.Default.Counter("selest_kde_batch_queries_total")

	// Fit-path counters. fitSortsAvoided counts fits that reused a sort
	// instead of sorting again: every estimator fitted from a FitContext
	// (the FitContext's reason to exist — on the seed path every DPI pilot,
	// LSCV fit, oracle candidate, and hybrid bin paid its own O(n log n)
	// sort), plus every core.BuildSorted call, whose caller's sorted view
	// spares core.Build's copy-and-sort. The sort core.Build performs
	// itself is not counted. fitGridEvals counts density grid points
	// answered by the DensityGrid sweep (the batched replacement for
	// pointwise pilot evaluation in the roughness functionals and the
	// change-point scan).
	fitSortsAvoided = telemetry.Default.Counter("selest_fit_sorts_avoided_total")
	fitGridEvals    = telemetry.Default.Counter("selest_fit_grid_evals_total")
)
