// Package storedref is a tilesimvet fixture for the reference graph's
// stored-reference edges, seen through the sharedstate rule: the
// goroutine root Dispatch reaches inner.Bump across the package
// boundary only through a function literal that newSink stores in a
// struct field and run invokes, and reaches bump only through a method
// value it stores without calling. Both callees must be scanned as
// concurrent code, attributed to Dispatch.
package storedref

import "tilesim/internal/analysis/testdata/src/storedref/inner"

// sink carries the stored literal; emit is a field conduit node in the
// reference graph.
type sink struct {
	emit func()
}

// newSink stores the literal. Nothing reachable from Dispatch calls
// it, so the literal is reachable only through the emit field.
func newSink() sink {
	return sink{emit: func() { inner.Bump() }}
}

type counter struct{ n int }

// hits is written by bump.
var hits int

// bump is concurrent code only through the stored method value in
// Dispatch.
func (c *counter) bump() {
	hits++ // want: write (via the stored method value)
}

// Start launches the fixture's goroutine root.
func Start(c *counter) {
	go Dispatch(c, newSink())
}

// Dispatch is the goroutine root.
func Dispatch(c *counter, s sink) {
	cb := c.bump
	_ = cb
	run(s)
}

// run invokes the stored literal through the field; Dispatch never
// names the literal, so reaching inner.Bump proves the field-conduit
// edge.
func run(s sink) { s.emit() }
