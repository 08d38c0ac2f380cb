// Realdata: fact-finding on a real-world Twitter archive format. A small
// embedded archive in the Twitter API v1.1 JSONL format (the format of the
// paper's 2015 datasets) flows through ingestion — dense source ids, a
// follow graph from retweet edges, chronological ordering — and the full
// pipeline, finishing with an HTML report on disk.
//
//	go run ./examples/realdata
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"depsense/internal/apollo"
	"depsense/internal/core"
	"depsense/internal/report"
	"depsense/internal/tweetjson"
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

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tweets, err := tweetjson.Parse(strings.NewReader(archive))
	if err != nil {
		return err
	}
	input, mapping, err := tweetjson.ToPipeline(tweets)
	if err != nil {
		return err
	}
	fmt.Printf("ingested %d tweets from %d accounts, %d retweet edges\n",
		len(input.Messages), input.NumSources, input.Graph.NumEdges())

	finder := &core.EMExt{}
	out, err := apollo.Run(input, finder, apollo.Options{TopK: 10})
	if err != nil {
		return err
	}
	fmt.Println("derived:", out.Dataset.Summarize())
	fmt.Println("\nranked assertions:")
	for rank, c := range out.Ranked {
		fmt.Printf("  %d. p=%.3f %s\n", rank+1, out.Result.Posterior[c], out.RepresentativeText[c])
	}

	f, err := os.CreateTemp("", "depsense-report-*.html")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.Render(f, report.Input{
		Title:       "Metro incident",
		Algorithm:   finder.Name(),
		Pipeline:    out,
		SourceNames: mapping.ScreenNames,
	}); err != nil {
		return err
	}
	fmt.Println("\nHTML report:", f.Name())
	return nil
}
