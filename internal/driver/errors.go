package driver

import (
	"errors"
	"fmt"

	"nvbitgo/internal/gpu"
)

// Typed CUresult-style sentinel errors. Every device-side fault surfaced by
// LaunchKernel wraps exactly one of these (plus the underlying *gpu.Fault),
// so applications can classify failures with errors.Is and still recover the
// full provenance with errors.As / gpu.AsFault.
var (
	// ErrIllegalAddress: an access outside any mapped memory window
	// (global heap, shared, local or constant) — CUDA_ERROR_ILLEGAL_ADDRESS.
	ErrIllegalAddress = errors.New("CUDA_ERROR_ILLEGAL_ADDRESS")
	// ErrMisalignedAddress: an access not aligned to its width —
	// CUDA_ERROR_MISALIGNED_ADDRESS.
	ErrMisalignedAddress = errors.New("CUDA_ERROR_MISALIGNED_ADDRESS")
	// ErrIllegalInstruction: an undecodable, unimplemented or malformed
	// instruction, or a wild jump — CUDA_ERROR_ILLEGAL_INSTRUCTION.
	ErrIllegalInstruction = errors.New("CUDA_ERROR_ILLEGAL_INSTRUCTION")
	// ErrHardwareStackError: call/save stack over- or underflow —
	// CUDA_ERROR_HARDWARE_STACK_ERROR.
	ErrHardwareStackError = errors.New("CUDA_ERROR_HARDWARE_STACK_ERROR")
	// ErrLaunchTimeout: the launch watchdog expired —
	// CUDA_ERROR_LAUNCH_TIMEOUT.
	ErrLaunchTimeout = errors.New("CUDA_ERROR_LAUNCH_TIMEOUT")
	// ErrLaunchFailed: any other device-side fault —
	// CUDA_ERROR_LAUNCH_FAILED.
	ErrLaunchFailed = errors.New("CUDA_ERROR_LAUNCH_FAILED")
	// ErrToolCallback: a hook callback failed — in the NVBit core, a tool
	// panic or a JIT or code-swap error, which follows it in the chain.
	ErrToolCallback = errors.New("driver: tool callback failed")
)

// sentinelFor maps a device fault kind onto its CUresult sentinel.
func sentinelFor(k gpu.FaultKind) error {
	switch k {
	case gpu.FaultIllegalAddress, gpu.FaultSharedOOB, gpu.FaultLocalOOB, gpu.FaultConstOOB:
		return ErrIllegalAddress
	case gpu.FaultMisalignedAddress:
		return ErrMisalignedAddress
	case gpu.FaultInvalidInstruction:
		return ErrIllegalInstruction
	case gpu.FaultStackOverflow, gpu.FaultStackUnderflow:
		return ErrHardwareStackError
	case gpu.FaultWatchdogTimeout:
		return ErrLaunchTimeout
	}
	return ErrLaunchFailed
}

// mapLaunchError wraps a Device.Launch error for the application: device
// faults gain their CUresult sentinel (both the sentinel and the *gpu.Fault
// stay visible to errors.Is / errors.As); host-side validation errors pass
// through with the kernel name attached.
func mapLaunchError(kernel string, err error) error {
	if f, ok := gpu.AsFault(err); ok {
		return fmt.Errorf("driver: launching %s: %w: %w", kernel, sentinelFor(f.Kind), err)
	}
	return fmt.Errorf("driver: launching %s: %w", kernel, err)
}
