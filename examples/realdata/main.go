// Realdata: fact-finding on a real-world Twitter archive format. A small
// embedded archive in the Twitter API v1.1 JSONL format (the format of the
// paper's 2015 datasets) flows through ingestion — dense source ids, a
// follow graph from retweet edges, chronological ordering — and the full
// pipeline, finishing with an HTML report on disk. The report goes to a
// new temporary directory, whose path is printed on stderr.
//
//	go run ./examples/realdata
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"depsense"
)

// archive is a miniature incident stream: two reporters, a news desk, a
// repeat offender spreading a rumor, and retweeters of both camps.
const archive = `
{"id_str":"1","text":"witness14 reported explosion near station3 n88 #metro","created_at":"Sat Mar 14 08:00:00 +0000 2015","user":{"id_str":"100","screen_name":"eyewitness_ann"}}
{"id_str":"2","text":"official2 confirmed evacuation near station3 n12 #metro","created_at":"Sat Mar 14 08:04:00 +0000 2015","user":{"id_str":"101","screen_name":"city_desk"}}
{"id_str":"3","text":"witness14 reported explosion near station3 n88 #metro update","created_at":"Sat Mar 14 08:06:00 +0000 2015","user":{"id_str":"102","screen_name":"marco_t"}}
{"id_str":"4","text":"resident9 spotted zombies near plaza7 n5 #metro","created_at":"Sat Mar 14 08:10:00 +0000 2015","user":{"id_str":"103","screen_name":"chaos_andy"}}
{"id_str":"5","text":"RT @chaos_andy: resident9 spotted zombies near plaza7 n5 #metro","created_at":"Sat Mar 14 08:11:00 +0000 2015","user":{"id_str":"104","screen_name":"bot_aa"},"retweeted_status":{"id_str":"4","user":{"id_str":"103","screen_name":"chaos_andy"}}}
{"id_str":"6","text":"RT @chaos_andy: resident9 spotted zombies near plaza7 n5 #metro","created_at":"Sat Mar 14 08:12:00 +0000 2015","user":{"id_str":"105","screen_name":"bot_bb"},"retweeted_status":{"id_str":"4","user":{"id_str":"103","screen_name":"chaos_andy"}}}
{"id_str":"7","text":"RT @eyewitness_ann: witness14 reported explosion near station3 n88 #metro","created_at":"Sat Mar 14 08:13:00 +0000 2015","user":{"id_str":"106","screen_name":"paula_r"},"retweeted_status":{"id_str":"1","user":{"id_str":"100","screen_name":"eyewitness_ann"}}}
{"id_str":"8","text":"official2 confirmed evacuation near station3 n12 #metro","created_at":"Sat Mar 14 08:15:00 +0000 2015","user":{"id_str":"107","screen_name":"metro_watch"}}
`

// reportName is the report's file name inside the output directory.
const reportName = "report.html"

func main() {
	dir, err := os.MkdirTemp("", "depsense-report-")
	if err != nil {
		log.Fatal(err)
	}
	if err := run(os.Stdout, dir); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "report written to", filepath.Join(dir, reportName))
}

// run prints the pipeline's results to w and writes the HTML report to
// dir/report.html.
func run(w io.Writer, dir string) error {
	input, screenNames, err := depsense.ReadTweetArchive(strings.NewReader(archive))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ingested %d tweets from %d accounts, %d retweet edges\n",
		len(input.Messages), input.NumSources, input.Graph.NumEdges())

	finder := depsense.NewEMExt(depsense.EMOptions{})
	out, err := depsense.RunPipeline(input, finder, depsense.PipelineOptions{TopK: 10})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "derived:", out.Dataset.Summarize())
	fmt.Fprintln(w, "\nranked assertions:")
	for rank, c := range out.Ranked {
		fmt.Fprintf(w, "  %d. p=%.3f %s\n", rank+1, out.Result.Posterior[c], out.RepresentativeText[c])
	}

	var html bytes.Buffer
	if err := depsense.WriteReport(&html, depsense.ReportInput{
		Title:       "Metro incident",
		Algorithm:   finder.Name(),
		Pipeline:    out,
		SourceNames: screenNames,
	}); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, reportName), html.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nHTML report: %s (%d bytes)\n", reportName, html.Len())
	return nil
}
