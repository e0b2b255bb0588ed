//go:build race

package octant_test

// raceDetector reports that the tests were built with -race.
const raceDetector = true
