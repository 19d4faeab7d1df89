package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strings"
)

// Set at link time by bench/run.sh: the digest of the sources it built
// from (see digestSources), and the git commit and whether the tree had
// uncommitted changes, "unknown" outside a git checkout. A binary whose
// digest differs from the tree it runs in is stale.
var sourceDigest, commit, dirty string

// digestSources hashes every Go source, go.mod and go.sum under root, and
// BENCHMARK.json, in the format of
//
//	find . -type f \( -name '*.go' -o ... \) | LC_ALL=C sort | xargs sha256sum | sha256sum
//
// which bench/run.sh computes before building. The build directory and
// hidden files and directories are skipped.
func digestSources(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		switch {
		case p != root && strings.HasPrefix(name, "."):
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		case d.IsDir():
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" || name == "BENCHMARK.json" {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			files = append(files, "./"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	slices.Sort(files)
	all := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(all, "%x  %s\n", sha256.Sum256(data), f)
	}
	return hex.EncodeToString(all.Sum(nil)), nil
}

// stamp identifies what produced a result.
type stamp struct {
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
	Source     string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
}

// newStamp records the build and the machine.
func newStamp(seed int64, gomaxprocs int) stamp {
	return stamp{
		Commit:     commit,
		Dirty:      dirty,
		Source:     sourceDigest,
		GoVersion:  goruntime.Version(),
		CPU:        cpuModel(),
		NumCPU:     goruntime.NumCPU(),
		GOMAXPROCS: gomaxprocs,
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
