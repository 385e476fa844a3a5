package coherence

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"tilesim/internal/cache"
)

// TestDirEntryIsOneHostCacheLine pins the directory's layout: an entry
// is 64 bytes, one host cache line, and a chunk of entries holds no
// pointer, so the GC never scans the directory. The sharer sets live
// in the chunk's word array instead.
func TestDirEntryIsOneHostCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(dirEntry{}); got != 64 {
		t.Errorf("unsafe.Sizeof(dirEntry{}) = %d, want 64", got)
	}
	if holdsPointers(reflect.TypeOf(dirChunk{})) {
		t.Error("dirChunk holds pointers")
	}
}

// holdsPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}

// TestDirEntryReleasedTwicePanics releases one directory entry twice,
// once for a block with an L2 line and once for a block without one.
// The first release must poison the entry, so that it tracks no block
// and names no owner, and the second must panic before the entry
// rejoins the freelist.
func TestDirEntryReleasedTwicePanics(t *testing.T) {
	const block = 0x200000 // home 0
	for _, c := range []struct {
		name string
		inL2 bool
		want string
	}{
		{"with an L2 line", true, "but its L2 line names 0"},
		{"without an L2 line", false, "is on no line and not on the side list"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newTestSystem(t, rig{}).p.homeOf(block)
			if c.inL2 {
				h.l2.Insert(block, cache.Shared)
			}
			e, _ := h.entry(block)
			h.release(block, e)
			if e.block != poisonBlock || e.owner != -2 {
				t.Fatalf("released entry tracks block %#x with owner %d, want the poison %#x and -2", e.block, e.owner, poisonBlock)
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Fatalf("second release: panic %q, want one containing %q", msg, c.want)
				}
			}()
			h.release(block, e)
		})
	}
}
