// Package cluster groups near-duplicate short texts (tweets) into
// assertions, the extraction step the paper inherits from the Apollo
// fact-finding tool. It implements single-pass leader clustering over token
// sets with Jaccard similarity, accelerated by an inverted token index so
// only clusters sharing at least one token with the incoming document are
// considered.
package cluster

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Clusterer groups tokenized documents into assertions; the Apollo
// pipeline accepts any implementation.
type Clusterer interface {
	Cluster(docs [][]string) Assignment
}

var _ Clusterer = (*Leader)(nil)

// Tokenize normalizes tweet text into a deduplicated token set: lowercase,
// punctuation-stripped, with retweet markers ("rt"), @-mentions, URLs, and
// common stopwords removed. These are exactly the elements that vary
// between a claim and its repeats, so removing them lets a retweet cluster
// with its original. Tokens keep their first-occurrence order: snapshots
// persist leader tokens and WAL replay re-tokenizes, so the output must
// stay exactly this sequence.
//
// One pass splits the text at unicode.IsSpace, as strings.Fields does,
// trims each field's edge punctuation, and lowercases only what is left,
// exactly as strings.ToLower would: no rune lowercases into or out of
// whitespace or the trimmed set, so splitting and trimming before
// lowercasing cuts the same tokens. A field that is already lowercase
// ASCII is a substring of text; the rest are lowercased into one shared
// buffer.
func Tokenize(text string) []string {
	var (
		buf   [scanDedupMax]string
		kept  = buf[:0]
		seen  map[string]struct{}
		lower strings.Builder
	)
	for i := 0; i < len(text); {
		if class, w := runeClass(text, i); class == classSpace {
			i += w
			continue
		}
		// Scan one field, keeping the bounds [lo, hi) of its runes between
		// the first and the last that are not edge punctuation.
		lo, hi, plain := -1, -1, true
		for i < len(text) {
			class, w := runeClass(text, i)
			if class == classSpace {
				break
			}
			if class != classPunct {
				if lo < 0 {
					lo = i
				}
				hi = i + w
				plain = plain && class == classKeep
			}
			i += w
		}
		if lo < 0 {
			continue
		}
		f := text[lo:hi]
		if !plain {
			if lower.Cap() == 0 {
				lower.Grow(len(text) - lo)
			}
			start := lower.Len()
			for _, c := range f {
				lower.WriteRune(unicode.ToLower(c))
			}
			f = lower.String()[start:]
		}
		switch {
		case f == "rt":
			continue
		case strings.HasPrefix(f, "@"):
			continue
		case strings.HasPrefix(f, "http://") || strings.HasPrefix(f, "https://"):
			continue
		case stopwords[f]:
			continue
		}
		// A tweet keeps a few dozen tokens at most, where scanning the kept
		// tokens beats hashing each one; only a long body pays for a set,
		// which keeps it linear, and for kept tokens sized for every field
		// left.
		if seen == nil && len(kept) == scanDedupMax {
			size := len(kept) + 1 + countFields(text[i:])
			seen = make(map[string]struct{}, size)
			for _, k := range kept {
				seen[k] = struct{}{}
			}
			kept = append(make([]string, 0, size), kept...)
		}
		if seen != nil {
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
		} else if slices.Contains(kept, f) {
			continue
		}
		kept = append(kept, f)
	}
	return append(make([]string, 0, len(kept)), kept...)
}

// countFields returns the number of fields in text, as len(strings.Fields)
// would.
func countFields(text string) int {
	n, inField := 0, false
	for i := 0; i < len(text); {
		class, w := runeClass(text, i)
		if space := class == classSpace; space == inField {
			inField = !space
			if inField {
				n++
			}
		}
		i += w
	}
	return n
}

// Rune classes for Tokenize's scan.
const (
	classKeep  = iota // kept as is: every other ASCII byte
	classSpace        // unicode.IsSpace: ends a field
	classPunct        // isEdgePunct: trimmed from a field's ends
	classLower        // kept, lowercased: ASCII uppercase and all non-ASCII
)

// asciiClass classifies every ASCII byte.
var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := range t {
		switch r := rune(c); {
		case unicode.IsSpace(r):
			t[c] = classSpace
		case isEdgePunct(r):
			t[c] = classPunct
		case 'A' <= r && r <= 'Z':
			t[c] = classLower
		}
	}
	return t
}()

// runeClass classifies the rune at text[i] and returns its width, decoding
// as a range loop over the string does (an invalid byte is utf8.RuneError
// of width 1).
func runeClass(text string, i int) (class uint8, width int) {
	if c := text[i]; c < utf8.RuneSelf {
		return asciiClass[c], 1
	}
	r, w := utf8.DecodeRuneInString(text[i:])
	switch {
	case unicode.IsSpace(r):
		return classSpace, w
	case isEdgePunct(r):
		return classPunct, w
	}
	return classLower, w
}

// scanDedupMax is the most kept tokens Tokenize dedupes by scanning.
const scanDedupMax = 32

// isEdgePunct reports whether Tokenize trims r from a field's ends.
func isEdgePunct(r rune) bool {
	switch r {
	case '.', ',', '!', '?', ';', ':', '\'', '"', '(', ')', '[', ']', '{', '}', '…', '—', '-':
		return true
	}
	return false
}

var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "is": true, "are": true, "was": true,
	"were": true, "be": true, "been": true, "to": true, "of": true, "in": true,
	"on": true, "at": true, "and": true, "or": true, "it": true, "its": true,
	"this": true, "that": true, "with": true, "for": true, "by": true,
	"from": true, "as": true, "has": true, "have": true, "had": true,
	"i": true, "we": true, "you": true, "they": true, "he": true, "she": true,
}

// Leader is a single-pass leader clusterer: each document joins the best
// existing cluster whose centroid token set is at least Threshold-similar
// (Jaccard), otherwise it founds a new cluster. The centroid is the
// founding document's token set — cheap, deterministic, and faithful to
// Apollo's streaming design.
type Leader struct {
	// Threshold is the minimum Jaccard similarity for joining a cluster
	// (default 0.5).
	Threshold float64
	// MaxPostings caps the inverted-index list per token (default 128).
	// Tokens contained in more clusters than this are treated as
	// non-discriminative and stop generating candidates — the standard
	// stop-token defense that keeps a 40k-tweet stream from degenerating
	// into all-pairs comparison through one shared hashtag. The shared
	// token still undercounts intersections slightly for such tokens,
	// which is the accepted trade-off.
	MaxPostings int
}

// Assignment is the clustering output.
type Assignment struct {
	// Cluster[d] is the cluster id of document d.
	Cluster []int
	// NumClusters is the number of clusters created.
	NumClusters int
	// Leaders[c] is the founding document id of cluster c.
	Leaders []int
}

// Cluster assigns every tokenized document to a cluster. It is the batch
// form of the incremental API: feeding the documents through
// Incremental.Add in order (see incremental.go), so batch callers and the
// streaming ingestion service share one clustering algorithm.
func (l *Leader) Cluster(docs [][]string) Assignment {
	inc := l.Incremental()
	assign := Assignment{Cluster: make([]int, len(docs))}
	for d, doc := range docs {
		assign.Cluster[d] = inc.Add(doc)
	}
	assign.NumClusters = inc.NumClusters()
	assign.Leaders = inc.Leaders()
	return assign
}
