//! Expected results of the 20 Fig 8 + Fig 9 programs under default
//! options, written out by hand.
//!
//! Execution columns hold for `main` on the program's paper input:
//! the printed value, the number of `print` lines and an FNV-1a digest of
//! them (each line followed by `\n`), and the space statistics. They were
//! taken from the `cj-runtime` tree-walking interpreter, the reference
//! engine; the traced `execute` run checks the interpreter against them
//! again. Compile columns are the exact inference and lowering counts:
//! region variables created, `letreg`s inserted, and stack-bytecode
//! instructions.
//!
//! A change that alters any of these on purpose (region splitting moves
//! the space and region columns) updates this table in a change of its own.

/// One program's expected results.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    pub name: &'static str,
    pub value: &'static str,
    pub prints: usize,
    pub prints_digest: u64,
    pub peak_live: usize,
    pub total_allocated: usize,
    pub regions_created: usize,
    pub objects_allocated: usize,
    pub infer_regions: usize,
    pub localized_regions: usize,
    pub vm_instructions: usize,
}

/// Digest of no output at all.
const NONE: u64 = 0xcbf2_9ce4_8422_2325;

#[allow(clippy::too_many_arguments)]
const fn row(
    name: &'static str,
    value: &'static str,
    prints: usize,
    prints_digest: u64,
    peak_live: usize,
    total_allocated: usize,
    regions_created: usize,
    objects_allocated: usize,
    infer_regions: usize,
    localized_regions: usize,
    vm_instructions: usize,
) -> Expected {
    Expected {
        name,
        value,
        prints,
        prints_digest,
        peak_live,
        total_allocated,
        regions_created,
        objects_allocated,
        infer_regions,
        localized_regions,
        vm_instructions,
    }
}

#[rustfmt::skip]
pub const TABLE: [Expected; 20] = [
    //   name                         value    prints digest  peak     total     regions  objects  infer  letreg instrs
    row("Sieve of Eratosthenes",     "5133",  0, NONE, 400024,  400024,        1,       1,   4,  1,  95),
    row("Ackermann",                 "509",   0, NONE,     96, 4121544,   171731,  171731,   7,  2,  46),
    row("Merge Sort",                "50000", 0, NONE, 7200352, 42143168,  299999, 1316974, 180, 10, 385),
    row("Mandelbrot",                "2666",  0, NONE,     64, 5871424,   183482,  183482,   7,  2, 214),
    row("Naive Life",                "102",   0, NONE,  23496,   23496,    23998,      33,  74,  6, 379),
    row("Optimized Life (array)",    "18",    0, NONE,   4128,   22704,     2571,      11,  12,  3, 336),
    row("Optimized Life (dangling)", "18",    0, NONE,  22728,   22728,     2561,      12,  16,  2, 338),
    row("Optimized Life (stack)",    "11",    0, NONE,  23320,   23320,     2561,      33,  49,  2, 323),
    row("Reynolds3",                 "0",     0, NONE,  41272, 3314552,  2457401,  103324,  75,  8, 129),
    row("foo-sum",                   "27300", 0, NONE,     96,    7224,      201,     301,  17,  3,  82),
    row("bisort",                    "632",   0, NONE,   5104,    5104,     7875,     128, 121, 13, 242),
    row("em3d",                      "1",     0, NONE,  20512,   20512,     5541,     513, 130,  9, 317),
    row("health",                    "513",   0, NONE,  33360,   33360,    23007,     783, 714, 16, 395),
    row("mst",                       "829",   0, NONE,   3136,    3136,       66,      67,  39,  3, 235),
    row("power",                     "1",     0, NONE,  14752,   14752,      981,     449, 169,  7, 288),
    row("treeadd",                   "4095",  0, NONE, 163800,  163800,    12287,    4095,  39,  3,  48),
    row("tsp",                       "1",     0, NONE,  14280,   14280,     1785,     255, 123,  9, 206),
    row("perimeter",                 "3316",  0, NONE, 305816,  305816,    34360,    5461, 142,  8, 330),
    row("n-body",                    "1",     0, NONE,   7352,   17960,     7267,     185, 345, 18, 527),
    row("voronoi",                   "64",    0, NONE,  14800,   14800,    98242,     319, 170,  7, 358),
];

/// The table row of a suite program.
///
/// # Panics
///
/// When the suite gained a program the table does not list.
pub fn of(name: &str) -> &'static Expected {
    TABLE
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no expected results for `{name}`"))
}

pub fn digest(lines: &[String]) -> u64 {
    let mut h = NONE;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Differences between an execution outcome and the table, empty when it
/// matches.
pub fn mismatches(e: &Expected, out: &cj_runtime::Outcome) -> Vec<String> {
    let mut diffs = Vec::new();
    let mut cmp = |what: &str, got: String, want: String| {
        if got != want {
            diffs.push(format!("{}: {what} {got}, expected {want}", e.name));
        }
    };
    cmp("value", out.value.to_string(), e.value.to_string());
    cmp("prints", out.prints.len().to_string(), e.prints.to_string());
    cmp(
        "prints digest",
        format!("{:016x}", digest(&out.prints)),
        format!("{:016x}", e.prints_digest),
    );
    let s = &out.space;
    cmp(
        "peak_live",
        s.peak_live.to_string(),
        e.peak_live.to_string(),
    );
    cmp(
        "total_allocated",
        s.total_allocated.to_string(),
        e.total_allocated.to_string(),
    );
    cmp(
        "regions_created",
        s.regions_created.to_string(),
        e.regions_created.to_string(),
    );
    cmp(
        "objects_allocated",
        s.objects_allocated.to_string(),
        e.objects_allocated.to_string(),
    );
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lists_every_suite_program_once() {
        let names: Vec<&str> = cj_benchmarks::all_benchmarks()
            .iter()
            .map(|b| b.name)
            .collect();
        assert_eq!(names.len(), TABLE.len());
        for name in names {
            assert_eq!(TABLE.iter().filter(|e| e.name == name).count(), 1, "{name}");
        }
    }
}
