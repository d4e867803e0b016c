//go:build race

package vca

// raceDetectorOn skips TestFastEngineSpeedupFloor: the race detector
// instruments the detailed core and the fast engine by different
// factors, so their speed ratio under it says nothing about either.
const raceDetectorOn = true
