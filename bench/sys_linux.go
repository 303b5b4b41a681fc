//go:build linux

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// filesystemOf names the filesystem that holds dir (the nearest
// existing ancestor when dir does not exist yet).
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	for dir != "" {
		if err := syscall.Statfs(dir, &st); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("magic-0x%x", uint32(st.Type))
}

// peakRSSMB returns the peak resident set of an exited child in MB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
