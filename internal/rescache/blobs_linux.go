//go:build linux

package rescache

import (
	"crypto/sha256"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// blobs is a disk store's schema-version directory, held open from Open
// to Close so that every blob is resolved relative to it: opening
// "dd/<digest>.bin" with openat walks two path components, where the
// blob's absolute path walks every component of the store's location.
// The descriptor lives in an *os.File, whose finalizer closes it if the
// store is dropped unclosed. The lock keeps Close from releasing the
// descriptor, and the kernel from reusing its number, while a read or a
// write is using it.
type blobs struct {
	prefix string // the directory's path with a trailing separator

	mu  sync.RWMutex
	dir *os.File // nil once closed
	fd  int
}

func (b *blobs) open(dir string) error {
	fd, err := retry(func() (int, error) {
		return syscall.Open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	})
	if err != nil {
		return &os.PathError{Op: "open", Path: dir, Err: err}
	}
	b.prefix = dir + string(filepath.Separator)
	b.dir = os.NewFile(uintptr(fd), dir)
	b.fd = fd
	return nil
}

func (b *blobs) close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dir == nil {
		return nil
	}
	err := b.dir.Close()
	b.dir = nil
	return err
}

// read reads the blob of sum into buf, growing it only for a file
// larger than buf's capacity. The relative path is written into a
// NUL-terminated buffer on the stack and passed to a raw openat, so a
// read allocates nothing. A blob fits the caller's buffer, so a read
// costs one openat, one read and one close: os.ReadFile adds a stat, a
// second read to see the end of the file, and the runtime poller's
// registration of the descriptor, which together cost more than the
// read itself. A short read ends the file: a regular file returns fewer
// bytes than asked only at its end. Were a read ever cut short anyway,
// the truncated blob would fail to decode and count as a corrupt miss,
// never as a wrong hit.
func (b *blobs) read(sum *[sha256.Size]byte, buf []byte) ([]byte, error) {
	var name [relPathLen + 1]byte
	appendRelPath(name[:0], sum) // name[relPathLen] stays the NUL
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.dir == nil {
		return nil, errClosed
	}
	fd, err := openat(b.fd, &name[0], syscall.O_RDONLY|syscall.O_CLOEXEC)
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		want := cap(buf) - len(buf)
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+n]
		if n < want {
			return buf, nil
		}
	}
}

// openat opens the NUL-terminated path at name relative to the
// directory dirfd. syscall.Openat would copy a Go string into a new
// C string first.
func openat(dirfd int, name *byte, flags int) (int, error) {
	for {
		fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dirfd), uintptr(unsafe.Pointer(name)), uintptr(flags), 0, 0, 0)
		switch errno {
		case 0:
			return int(fd), nil
		case syscall.EINTR:
			continue
		}
		return -1, errno
	}
}

// write installs data as the blob of sum: it makes the fan-out
// directory if needed, writes a temp file beside the blob and renames it
// into place, all relative to the held directory.
func (b *blobs) write(sum *[sha256.Size]byte, data []byte) error {
	var name [relPathLen]byte
	rel := string(appendRelPath(name[:0], sum))
	fan, file := rel[:2], rel[3:]
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.dir == nil {
		return errClosed
	}
	if err := syscall.Mkdirat(b.fd, fan, 0o755); err != nil && err != syscall.EEXIST {
		return b.pathError("mkdirat", fan, err)
	}
	// Like os.CreateTemp: a random suffix, created exclusively, mode 0600.
	prefix := fan + "/." + file[:len(file)-len(".bin")] + ".tmp-"
	var tmp string
	var fd int
	for try := 0; ; try++ {
		tmp = prefix + strconv.FormatUint(uint64(rand.Uint32()), 10)
		var err error
		fd, err = retry(func() (int, error) {
			return syscall.Openat(b.fd, tmp, syscall.O_WRONLY|syscall.O_CREAT|syscall.O_EXCL|syscall.O_CLOEXEC, 0o600)
		})
		if err == nil {
			break
		}
		if err != syscall.EEXIST || try == 10000 {
			return b.pathError("openat", tmp, err)
		}
	}
	err := writeAll(fd, data)
	if cerr := syscall.Close(fd); err == nil {
		err = cerr
	}
	// Removing the temp file after a failure is best effort: the
	// failure is what the caller hears about.
	if err != nil {
		_ = syscall.Unlinkat(b.fd, tmp)
		return b.pathError("writing", rel, err)
	}
	if err := syscall.Renameat(b.fd, tmp, b.fd, rel); err != nil {
		_ = syscall.Unlinkat(b.fd, tmp)
		return b.pathError("renameat", tmp, err)
	}
	return nil
}

func writeAll(fd int, data []byte) error {
	for len(data) > 0 {
		n, err := retry(func() (int, error) { return syscall.Write(fd, data) })
		if err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

func (b *blobs) pathError(op, rel string, err error) error {
	return &os.PathError{Op: "rescache: " + op, Path: b.prefix + filepath.FromSlash(rel), Err: err}
}

// retry calls f until it fails with something other than EINTR.
func retry(f func() (int, error)) (int, error) {
	for {
		n, err := f()
		if err != syscall.EINTR {
			return n, err
		}
	}
}
