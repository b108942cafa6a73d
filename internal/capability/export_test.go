package capability

// RaceEnabled lets the external tests skip their allocation pins too.
const RaceEnabled = raceEnabled
