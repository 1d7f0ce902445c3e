//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package jobstore

import "os"

// lockFile takes no lock: this platform has no flock, so one owner per
// store directory stays the operator's contract here, unenforced.
func lockFile(*os.File) error { return nil }
