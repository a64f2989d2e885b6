//go:build !linux

package wal

import "os"

// fdatasync falls back to a full Sync where the system call is not offered.
func fdatasync(f *os.File) error { return f.Sync() }
