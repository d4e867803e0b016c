//go:build race

package experiments

// raceDetectorOn gates the full-budget sweep tests: under the race
// detector a single sweep cell runs an order of magnitude slower, and
// the package with the full matrices takes about 270 s on a 2-vCPU
// Xeon host (16 s without the detector). The sweeps'
// numeric-shape assertions add no race coverage beyond what the small
// concurrent tests in this package and internal/simcache exercise, so
// `make test-race` skips them; `make test` always runs them in full.
const raceDetectorOn = true
