//go:build !race

package streamrt

const raceEnabled = false
