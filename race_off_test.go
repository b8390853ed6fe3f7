//go:build !race

package xplace

const raceDetector = false
