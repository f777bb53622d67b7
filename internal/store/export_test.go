package store

// RaceEnabled tells the external tests (package store_test, which can
// import netblock where this package cannot) whether the race detector
// is on.
const RaceEnabled = raceEnabled
