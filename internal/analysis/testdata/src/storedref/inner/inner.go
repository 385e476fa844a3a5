// Package inner is the cross-package callee of the storedref fixture:
// it is concurrent code only through the literal the storedref package
// stores into a struct field.
package inner

// calls is written by Bump.
var calls int

// Bump is reached from storedref.Dispatch via the stored literal.
func Bump() {
	calls++ // want: write (via the cross-package edge)
}
