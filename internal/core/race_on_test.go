//go:build race

package core

// raceDetector reports that the tests were built with -race.
const raceDetector = true
