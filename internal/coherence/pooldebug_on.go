//go:build pooldebug

package coherence

import "tilesim/internal/pooldbg"

// Sanitizer builds forward the directory-entry freelist transitions to
// the pooldbg registry, whose state machine catches double releases.

func dirEntryAcquired(e *dirEntry) { pooldbg.Acquire(e) }

func dirEntryReleased(e *dirEntry) { pooldbg.Release(e, 0) }
