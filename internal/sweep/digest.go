package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"tilesim/internal/cmp"
)

// Digest returns the canonical result digest: SHA-256 over the
// encoding/json serialization of the Result. encoding/json sorts map
// keys and renders floats in shortest round-trip form, so two
// bit-identical Results digest identically, and a digest covers every
// Result field. The golden tests and the bench/ harness pin results by
// it; a changed digest for an unchanged configuration is a
// determinism failure.
func Digest(res cmp.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		// Result is plain data (no channels, funcs, or cycles);
		// marshaling cannot fail. Keep the signature error-free and make
		// the impossible loudly visible if a future field breaks this.
		panic(fmt.Sprintf("sweep: result digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
