//go:build pooldebug

package cache

import "tilesim/internal/pooldbg"

// Sanitizer builds forward MSHR entry pool transitions to the pooldbg
// registry.

func entryAcquired(e *MSHREntry) { pooldbg.Acquire(e) }

func entryReleased(e *MSHREntry) { pooldbg.Release(e, e.Gen) }
