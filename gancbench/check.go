package main

import (
	"context"
	"fmt"
	"slices"

	"ganc"
)

// expectedItems computes a user's list in process with eng and returns it as
// external item keys, the form a server answers with.
func expectedItems(ctx context.Context, eng ganc.Engine, train *ganc.Dataset, userKey string, n int) ([]string, error) {
	idx, ok := train.UserInterner().Lookup(userKey)
	if !ok {
		return nil, fmt.Errorf("user %q is not in the train set", userKey)
	}
	set, err := eng.RecommendUser(ctx, ganc.UserID(idx), n)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(set))
	for k, item := range set {
		keys[k] = train.ItemInterner().Key(int32(item))
	}
	return keys, nil
}

// checkServed compares a served item list, key by key and in order, with the
// list eng computes in process for the same user.
func checkServed(ctx context.Context, eng ganc.Engine, train *ganc.Dataset, n int, userKey string, served []string) error {
	want, err := expectedItems(ctx, eng, train, userKey, n)
	if err != nil {
		return err
	}
	if !slices.Equal(served, want) {
		return fmt.Errorf("user %s: served %v, in-process engine gives %v", userKey, served, want)
	}
	return nil
}

// sameItems reports the first difference between two named answers for the
// same user.
func sameItems(userKey string, a, b []string, aName, bName string) error {
	if !slices.Equal(a, b) {
		return fmt.Errorf("user %s: %s answered %v, %s answered %v", userKey, aName, a, bName, b)
	}
	return nil
}
