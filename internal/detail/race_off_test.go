//go:build !race

package detail

const raceDetector = false
