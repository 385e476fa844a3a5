//go:build !(linux && amd64)

package workload

// cpuMask stands in for a CPU mask: only on Linux on amd64 does the
// producer place its thread, and so only there does a producer run.
type cpuMask struct{}

// otherCPUs reports no other CPU, so Prefetch starts no producer.
func otherCPUs() (cpuMask, bool) { return cpuMask{}, false }

// runOn does nothing here.
func runOn(cpuMask) bool { return false }
