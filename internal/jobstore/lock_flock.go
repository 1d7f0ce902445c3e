//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package jobstore

import (
	"os"
	"syscall"
)

// lockFile takes a non-blocking exclusive flock on f. It conflicts with
// every other open of the file, in this process or another, and the
// kernel drops it when f is closed or its process dies.
func lockFile(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return ErrLocked
	}
	return err
}
