//go:build linux || darwin

package trace

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only. The mapping is page-aligned
// by construction (mmap returns whole pages); madvise(SEQUENTIAL) is
// best-effort — the profiling pass is one forward sweep, so the kernel
// can read ahead aggressively and drop pages behind the cursor.
func mmapFile(f *os.File, size int) ([]byte, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: f.Name(), Err: err}
	}
	_ = syscall.Madvise(data, syscall.MADV_SEQUENTIAL)
	return data, nil
}

// munmapFile releases a mapping created by mmapFile.
func munmapFile(data []byte) error {
	return syscall.Munmap(data)
}
