//go:build !pooldebug

package cache

// The pooldebug sanitizer hooks compile to nothing in the default
// build; see internal/pooldbg.

func entryAcquired(e *MSHREntry) {}

func entryReleased(e *MSHREntry) {}
