package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host identifies where and on what code a record was measured, so that
// records from different core counts or sources are never compared
// without notice.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	// Commit is the git commit run.sh found, or "none" outside a clone.
	Commit string `json:"commit"`
	// Source hashes every Go source and go.mod file of the tree the
	// benchmark runs in, which identifies the code also where there is
	// no commit.
	Source string `json:"source"`
}

func hostFacts() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
		Source:     sourceHash("."),
	}
	if h.Commit == "" {
		h.Commit = "none"
	}
	return h
}

// sourceHash hashes the names and contents of the .go and go.mod files
// under root, skipping hidden directories (build output among them).
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
