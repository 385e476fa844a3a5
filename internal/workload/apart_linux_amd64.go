package workload

import (
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// sysGetcpu is getcpu(2), which package syscall does not name on amd64.
const sysGetcpu = 309

// otherCPUs returns the CPUs the calling thread may run on other than
// the one it runs on, and whether there are any.
func otherCPUs() (cpuMask, bool) {
	var mask cpuMask
	var cpu uint32
	if _, _, errno := syscall.RawSyscall(sysGetcpu, uintptr(unsafe.Pointer(&cpu)), 0, 0); errno != 0 || int(cpu) >= len(mask)*64 {
		return mask, false
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return mask, false
	}
	mask[cpu/64] &^= 1 << (cpu % 64)
	return mask, mask != cpuMask{}
}

// runOn restricts the calling thread to the CPUs in mask and reports
// whether it did.
func runOn(mask cpuMask) bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	return errno == 0
}
