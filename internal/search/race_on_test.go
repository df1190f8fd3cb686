//go:build race

package search

// raceEnabled skips the heap-measuring volume tests under the race
// detector, which slows every access and allocates beside the heap.
const raceEnabled = true
