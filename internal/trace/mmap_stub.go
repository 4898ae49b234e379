//go:build !linux && !darwin

package trace

import (
	"errors"
	"os"
)

// mmapFile always fails on platforms without a wired-up mmap path;
// Open streams the file instead.
func mmapFile(_ *os.File, _ int) ([]byte, error) {
	return nil, errors.ErrUnsupported
}

// munmapFile is unreachable when mmapFile never succeeds.
func munmapFile(_ []byte) error { return nil }
