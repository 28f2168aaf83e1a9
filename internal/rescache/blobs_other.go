//go:build !linux

package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// blobs is a disk store's schema-version directory, addressed by path:
// off Linux, Go's syscall package has no openat to resolve a blob
// relative to a held descriptor, so every read and write walks the
// blob's full path.
type blobs struct {
	prefix string // the directory's path with a trailing separator
	closed atomic.Bool
}

func (b *blobs) open(dir string) error {
	b.prefix = dir + string(filepath.Separator)
	return nil
}

func (b *blobs) close() error {
	b.closed.Store(true)
	return nil
}

// read reads the blob of sum. It is os.ReadFile; buf is unused.
func (b *blobs) read(sum *[sha256.Size]byte, buf []byte) ([]byte, error) {
	if b.closed.Load() {
		return nil, errClosed
	}
	return os.ReadFile(b.blobPath(hex.EncodeToString(sum[:])))
}

// write installs data as the blob of sum: it makes the fan-out
// directory if needed, writes a temp file beside the blob and renames it
// into place.
func (b *blobs) write(sum *[sha256.Size]byte, data []byte) error {
	if b.closed.Load() {
		return errClosed
	}
	digest := hex.EncodeToString(sum[:])
	path := b.blobPath(digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+digest+".tmp-*")
	if err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("rescache: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rescache: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rescache: %w", err)
	}
	return nil
}
