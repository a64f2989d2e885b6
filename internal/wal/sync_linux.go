//go:build linux

package wal

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data and only the metadata needed to read it back,
// which for a file of fixed size and block map is all a commit needs.
func fdatasync(f *os.File) error {
	err := syscall.Fdatasync(int(f.Fd()))
	for err == syscall.EINTR {
		err = syscall.Fdatasync(int(f.Fd()))
	}
	return os.NewSyscallError("fdatasync", err)
}
