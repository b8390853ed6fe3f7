//go:build race

package xplace

const raceDetector = true
