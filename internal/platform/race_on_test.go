//go:build race

package platform

// raceEnabled lets the volume tests shrink under the race detector, where
// every memory access costs several times as much.
const raceEnabled = true
