package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"ganc"
)

// scrapeMetrics fetches and parses GET /metrics from the server at base.
func scrapeMetrics(ctx context.Context, client *http.Client, base string) (*ganc.MetricsScrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s/metrics: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s/metrics: status %d", base, resp.StatusCode)
	}
	sc, err := ganc.ParseMetricsText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing %s/metrics: %w", base, err)
	}
	return sc, nil
}

// scrapes is one /metrics reading per server of a deployment.
type scrapes []*ganc.MetricsScrape

// scrapeAll reads /metrics from every server in bases.
func scrapeAll(ctx context.Context, client *http.Client, bases []string) (scrapes, error) {
	out := make(scrapes, len(bases))
	for k, b := range bases {
		sc, err := scrapeMetrics(ctx, client, b)
		if err != nil {
			return nil, err
		}
		out[k] = sc
	}
	return out, nil
}

// sum adds the series called name across every scrape and label set.
func (s scrapes) sum(name string) float64 {
	total := 0.0
	for _, sc := range s {
		total += sc.SumByPrefix(name)
	}
	return total
}

// delta is how much the series called name grew from before to after,
// summed across servers and label sets. For a histogram, pass the _count or
// _sum series.
func delta(before, after scrapes, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// getJSON decodes the JSON answer of GET base+path into v, failing on any
// status but 200.
func getJSON(ctx context.Context, client *http.Client, base, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s%s: %w", base, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET %s%s: %w", base, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: status %d: %s", base, path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s%s: decoding: %w", base, path, err)
	}
	return nil
}
