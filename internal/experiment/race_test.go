//go:build race

package experiment

// raceDetector reports a -race build (see checkGolden).
const raceDetector = true
