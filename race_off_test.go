//go:build !race

package vca

// See race_on_test.go.
const raceDetectorOn = false
