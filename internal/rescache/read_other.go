//go:build !unix

package rescache

import "os"

// readBlob reads the file at path. Off Unix it is os.ReadFile; buf is
// unused.
func readBlob(path string, buf []byte) ([]byte, error) {
	return os.ReadFile(path)
}
