//go:build !race

package vbit

const raceEnabled = false
