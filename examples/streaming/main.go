// Streaming: online selectivity estimation over a data stream — the
// paper's second future-work item (applying kernel estimators to online
// aggregate processing). A reservoir sample tracks the stream; the kernel
// estimator is re-fit periodically and its estimate of a fixed range
// predicate converges while the stream's distribution drifts.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math"

	"selest"
	"selest/internal/sample"
	"selest/internal/xrand"
)

func main() {
	const (
		domainLo, domainHi = 0, 100000
		reservoirSize      = 2000
		streamLen          = 500000
		refitEvery         = 50000
	)
	rng := xrand.New(11)
	res := sample.NewReservoir(xrand.New(12), reservoirSize)

	// The monitored predicate: a 5%-wide range in the middle of the domain.
	qa, qb := 45000.0, 50000.0

	// Exact running counts for comparison.
	var inRange, total int

	fmt.Printf("stream of %d records; monitoring  SELECT count(*) WHERE v BETWEEN %g AND %g\n\n", streamLen, qa, qb)
	fmt.Printf("%12s %12s %12s %12s %10s\n", "seen", "true sel.", "kernel est.", "sampling est.", "drift")

	for i := 1; i <= streamLen; i++ {
		// The stream drifts: the source distribution's mean wanders from
		// 30k to 70k over the stream's life, so the answer keeps changing
		// and stale statistics would be badly wrong.
		drift := float64(i) / streamLen
		mean := 30000 + 40000*drift
		v := math.Round(rng.NormalMeanStd(mean, 15000))
		if v < domainLo {
			v = domainLo
		} else if v > domainHi {
			v = domainHi
		}
		res.Add(v)
		total++
		if v >= qa && v <= qb {
			inRange++
		}

		if i%refitEvery == 0 {
			smp := res.Snapshot()
			est, err := selest.Build(smp, selest.Options{
				Method:   selest.Kernel,
				Boundary: selest.BoundaryKernels,
				DomainLo: domainLo,
				DomainHi: domainHi,
			})
			if err != nil {
				log.Fatal(err)
			}
			pure, err := selest.Build(smp, selest.Options{
				Method:   selest.Sampling,
				DomainLo: domainLo,
				DomainHi: domainHi,
			})
			if err != nil {
				log.Fatal(err)
			}
			trueSel := float64(inRange) / float64(total)
			fmt.Printf("%12d %12.5f %12.5f %12.5f %9.0f%%\n",
				i, trueSel, est.Selectivity(qa, qb), pure.Selectivity(qa, qb), 100*drift)
		}
	}

	fmt.Println("\nThe reservoir keeps a uniform sample of the whole stream, so both")
	fmt.Println("estimators track the cumulative selectivity; the kernel estimate is")
	fmt.Println("the smoother of the two at equal sample size (paper §2: higher")
	fmt.Println("convergence rate than pure sampling).")
}
