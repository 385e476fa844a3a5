//go:build !(linux && amd64)

package workload

// cpuMask stands in for a CPU mask: only on Linux on amd64 does the
// producer place its thread.
type cpuMask struct{}

// otherCPUs reports no other CPU.
func otherCPUs() (cpuMask, bool) { return cpuMask{}, false }

// runOn does nothing here.
func runOn(cpuMask) bool { return false }
