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
func Tokenize(text string) []string {
	fields := strings.Fields(strings.ToLower(text))
	tokens := make([]string, 0, len(fields))
	// A tweet has a few dozen fields at most, where scanning the kept
	// tokens beats hashing each one; only a long body pays for a set,
	// which keeps it linear.
	var seen map[string]struct{}
	if len(fields) > scanDedupMax {
		seen = make(map[string]struct{}, len(fields))
	}
	for _, f := range fields {
		f = strings.TrimFunc(f, isEdgePunct)
		switch {
		case f == "" || f == "rt":
			continue
		case strings.HasPrefix(f, "@"):
			continue
		case strings.HasPrefix(f, "http://") || strings.HasPrefix(f, "https://"):
			continue
		case stopwords[f]:
			continue
		}
		if seen != nil {
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
		} else if slices.Contains(tokens, f) {
			continue
		}
		tokens = append(tokens, f)
	}
	return tokens
}

// scanDedupMax is the most fields Tokenize dedupes by scanning.
const scanDedupMax = 32

// isEdgePunct reports whether Tokenize trims r from a field's ends. A
// switch, not strings.Trim's cutset: the cutset's non-ASCII runes would
// send every call down Trim's per-rune cutset scan.
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
