//go:build !pooldebug

package coherence

// The pooldebug sanitizer hooks compile to nothing in the default
// build; see internal/pooldbg.

func dirEntryAcquired(e *dirEntry) {}

func dirEntryReleased(e *dirEntry) {}
