package counterpoint

import (
	"os"

	"vca/internal/experiments"
	"vca/internal/simcache"
)

// MeasureMatrix measures every golden-matrix cell
// (experiments.CounterpointMatrix) at the commit budget stop, through
// one fresh result cache on jobs workers (0 = GOMAXPROCS), and appends
// that cache's own simcache.* registry as the "simcache/served-matrix"
// pseudo-cell: the cache that served the matrix must satisfy the
// service-accounting predicates too. The counterpoint gate and the
// teeth tests evaluate exactly this input set.
func MeasureMatrix(stop uint64, jobs int) ([]Input, error) {
	dir, err := os.MkdirTemp("", "counterpoint-matrix-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := simcache.Open(dir)
	if err != nil {
		return nil, err
	}

	cells := experiments.CounterpointMatrix()
	ins := make([]Input, len(cells))
	runner := simcache.Runner{Jobs: jobs, KeepGoing: true}
	if err := runner.Run(len(cells), func(i int) error {
		counters, params, err := experiments.RunMatrixCell(cells[i], stop, cache)
		ins[i] = Input{Cell: cells[i].Name, Counters: counters, Params: params}
		return err
	}); err != nil {
		return nil, err
	}
	return append(ins, Input{
		Cell:     "simcache/served-matrix",
		Counters: cache.MetricsRegistry().CounterMap(),
		Params:   map[string]uint64{},
	}), nil
}
