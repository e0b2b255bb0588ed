//go:build !race

package octant_test

const raceDetector = false
