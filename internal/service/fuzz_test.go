package service_test

import (
	"context"
	"slices"
	"testing"

	"github.com/oraql/go-oraql/internal/diskcache"
	"github.com/oraql/go-oraql/internal/service"
	"github.com/oraql/go-oraql/internal/service/client"
	"github.com/oraql/go-oraql/internal/warehouse"
)

// TestFuzzFilesIntoServerStore: a fuzz campaign uses the server's
// store whether it arrives as POST /v1/fuzz or as a script's fuzz():
// its oracle compiles are filed there, and so are its divergences,
// labelled with the resolved grammar profile, so an omitted grammar
// files under "default", the label -seed-from-warehouse asks for.
func TestFuzzFilesIntoServerStore(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		submit func(cl *client.Client) (*service.JobInfo, error)
	}{
		{"http", func(cl *client.Client) (*service.JobInfo, error) {
			return cl.Fuzz(ctx, &service.FuzzRequest{N: 10, Seed: 1, Workers: 1, Inject: true, NoTriage: true})
		}},
		{"script", func(cl *client.Client) (*service.JobInfo, error) {
			return cl.Campaign(ctx, &service.CampaignRequest{
				Script: `fuzz({n: 10, seed: 1, workers: 1, inject: true, triage: false})`,
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := diskcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			_, cl, stop := newTestServer(t, service.Config{Cache: store})
			defer stop()
			j, err := tc.submit(cl)
			if err != nil {
				t.Fatal(err)
			}
			if info := waitDone(t, cl, j.ID); info.State != service.JobDone {
				t.Fatalf("job state = %s (err %q)", info.State, info.Error)
			}
			if puts := store.Counters().Puts; puts == 0 {
				t.Error("the campaign put nothing into the server's store")
			}
			man := warehouse.Open(store).Load()
			filed := 0
			for _, s := range man.Summaries() {
				if s.Kind != warehouse.KindFuzz {
					continue
				}
				filed++
				if s.Grammar != "default" {
					t.Errorf("record %s filed under grammar %q, want \"default\"", s.ID, s.Grammar)
				}
			}
			if filed == 0 {
				t.Error("the campaign filed no fuzz record")
			}
			if got := man.DivergentSeeds("default"); !slices.Equal(got, []int64{1}) {
				t.Errorf(`DivergentSeeds("default") = %v, want [1]`, got)
			}
		})
	}
}
