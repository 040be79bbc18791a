//! The benchmark's inputs: the seeded `benchmark` dataset written to an
//! N-Triples file (plus pad triples the writes use), and the 20
//! `full_workload` queries as SPARQL text.
//!
//! The dataset is the fixed-seed `YagoConfig::benchmark()` graph (305,226
//! triples); the workload seed only reorders and mixes operations over it.
//! The program under test sees nothing but the file, the query texts and
//! the scripts.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use wireframe::datagen::{full_workload, generate, YagoConfig};
use wireframe::graph::Graph;
use wireframe::query::{to_sparql, Shape};

/// Where the benchmark keeps its generated inputs and span files, relative
/// to the directory it runs in.
pub const WORK_DIR: &str = ".agbench";

/// One workload query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// `CQC-1` … `CQD-5`.
    pub name: String,
    /// Whether the query is a diamond (cyclic).
    pub cyclic: bool,
    /// The SPARQL text sent to the program.
    pub text: String,
}

/// Predicate of the pad triples appended to the dataset; no query uses it.
pub const PAD_PREDICATE: &str = "agbenchPad";
/// Pad nodes appended to the dataset, joined in pairs by [`PAD_PREDICATE`].
pub const PAD_NODES: usize = 4096;

/// Label of pad node `i`. Pad nodes have no edge over any predicate a
/// query uses, so an edge between two of them that were never used before
/// matches no query: writing it exercises the write path without adding
/// answers, and without interning new labels.
pub fn pad_label(i: usize) -> String {
    format!("agbench_pad{i}")
}

/// The generated inputs of one run. Dropping it deletes the data file.
pub struct Dataset {
    pub path: PathBuf,
    pub queries: Vec<QuerySpec>,
}

impl Drop for Dataset {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Dataset {
    /// Generates the dataset, writes it as N-Triples under [`WORK_DIR`]
    /// followed by the pad triples, and renders the workload queries.
    /// Nothing here is timed.
    pub fn build() -> Result<Dataset, String> {
        let graph = generate(&YagoConfig::benchmark());
        let workload = full_workload(&graph).map_err(|e| format!("workload: {e}"))?;
        let dict = graph.dictionary();
        let queries: Vec<QuerySpec> = workload
            .iter()
            .map(|bq| QuerySpec {
                name: bq.name.clone(),
                cyclic: bq.shape == Shape::Cycle,
                text: to_sparql(&bq.query, dict),
            })
            .collect();
        std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
        let path = Path::new(WORK_DIR).join(format!("benchmark-{}.nt", std::process::id()));
        let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let dataset = Dataset { path, queries };
        let mut out = BufWriter::new(file);
        wireframe::graph::write(&graph, &mut out)
            .map_err(|e| format!("writing {}: {e}", dataset.path.display()))?;
        for i in (0..PAD_NODES).step_by(2) {
            writeln!(
                out,
                "{}\t{PAD_PREDICATE}\t{}",
                pad_label(i),
                pad_label(i + 1)
            )
            .map_err(|e| format!("writing {}: {e}", dataset.path.display()))?;
        }
        out.flush()
            .map_err(|e| format!("writing {}: {e}", dataset.path.display()))?;
        Ok(dataset)
    }

    /// Loads the data file with the program's N-Triples reader.
    pub fn load(&self) -> Result<Graph, String> {
        let file = File::open(&self.path).map_err(|e| format!("{}: {e}", self.path.display()))?;
        wireframe::graph::load(std::io::BufReader::new(file))
            .map_err(|e| format!("loading {}: {e}", self.path.display()))
    }
}
