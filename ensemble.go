package sharqfec

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sharqfec/internal/parallel"
)

// runIndexed runs fn(0..n-1) across a worker pool. The caller's
// goroutine is always one worker; every extra worker needs a work item
// of its own (at most n − 1 extras) and a token from the process-wide
// parallel budget shared with the shard runner, which stops at
// GOMAXPROCS − 1. That sharing is what stops an ensemble of sharded
// runs from oversubscribing the machine: whichever pool starts second
// finds the budget spent and runs narrower, in the limit sequentially
// — with identical results, since work items never depend on pool
// width. It returns the lowest-index error, so which error surfaces
// never depends on scheduling either.
func runIndexed(n int, fn func(i int) error) error {
	extra := 0
	for extra < n-1 && parallel.TryAcquire() {
		extra++
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(extra)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	for range extra {
		go func() {
			defer wg.Done()
			defer parallel.Release()
			work()
		}()
	}
	work() // the caller is always a worker
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// EnsembleResult aggregates a data experiment over several seeds. The
// paper chose a long run so "any dependency upon ns's internal random
// number generator would be minimized"; the ensemble achieves the same
// by averaging independent replicas (run in parallel — each simulation
// is single-threaded and deterministic, so replicas scale across cores).
type EnsembleResult struct {
	Protocol Protocol
	Seeds    []uint64

	// Mean/Std of the headline per-receiver totals across seeds.
	MeanPktsPerReceiver, StdPktsPerReceiver   float64
	MeanNACKsPerReceiver, StdNACKsPerReceiver float64
	MeanCompletion                            float64

	// MeanSeries is the per-bin mean of the data+repair series.
	MeanSeries Series

	// Runs holds the individual results, seed-ordered.
	Runs []*DataResult
}

// RunEnsemble runs cfg once per seed (in parallel, bounded by GOMAXPROCS)
// and aggregates. cfg.Seed is ignored; seeds supplies the replicas.
func RunEnsemble(cfg DataConfig, seeds []uint64) (*EnsembleResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sharqfec: ensemble needs at least one seed")
	}
	results := make([]*DataResult, len(seeds))
	// Bounded worker pool: goroutine count is the pool width, not the
	// seed count, so huge ensembles don't pay len(seeds) idle stacks.
	err := runIndexed(len(seeds), func(i int) error {
		c := cfg
		c.Seed = seeds[i]
		var err error
		results[i], err = RunData(c)
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &EnsembleResult{
		Protocol: cfg.Protocol,
		Seeds:    append([]uint64(nil), seeds...),
		Runs:     results,
	}
	var pkts, nacks, compl []float64
	maxBins := 0
	for _, r := range results {
		pkts = append(pkts, r.AvgDataRepair.Sum())
		nacks = append(nacks, r.AvgNACKs.Sum())
		compl = append(compl, r.CompletionRate)
		if len(r.AvgDataRepair.Bins) > maxBins {
			maxBins = len(r.AvgDataRepair.Bins)
		}
	}
	res.MeanPktsPerReceiver, res.StdPktsPerReceiver = meanStd(pkts)
	res.MeanNACKsPerReceiver, res.StdNACKsPerReceiver = meanStd(nacks)
	res.MeanCompletion, _ = meanStd(compl)

	first := results[0].AvgDataRepair
	res.MeanSeries = Series{Start: first.Start, BinWidth: first.BinWidth, Bins: make([]float64, maxBins)}
	for _, r := range results {
		for i, v := range r.AvgDataRepair.Bins {
			res.MeanSeries.Bins[i] += v
		}
	}
	for i := range res.MeanSeries.Bins {
		res.MeanSeries.Bins[i] /= float64(len(results))
	}
	return res, nil
}

// Seeds returns n deterministic seeds derived from base, for ensembles.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)*1_000_003
	}
	return out
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
