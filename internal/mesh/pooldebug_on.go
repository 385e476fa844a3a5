//go:build pooldebug

package mesh

import "tilesim/internal/pooldbg"

// Sanitizer builds forward transit freelist transitions to the pooldbg
// registry; double releases panic with both stacks.

func transitAcquired(t *transit) { pooldbg.Acquire(t) }

func transitReleased(t *transit) { pooldbg.Release(t, 0) }
