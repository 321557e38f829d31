//! Authoring a custom virus template (paper §III-A, Fig. 3).
//!
//! DStress is a *programming tool*: users describe a family of viruses as a
//! C-like template with `$$$_NAME_$$$` placeholders, declare each
//! placeholder's domain in the `->parameters` section, and let the GA
//! explore it. This example writes a template from scratch — a virus that
//! fills memory with an alternating pair of searched words — processes it,
//! wires it to a custom GA search, and prints the winning program.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_template
//! ```

use dstress::{DStress, ExperimentScale, Metric};
use dstress_ga::{BitGenome, Fitness, GaEngine, ParallelFitness};
use dstress_vpl::{pretty, BoundValue, Template};
use std::collections::HashMap;

/// The custom template: two searched words written to alternating columns.
const TWO_WORD_TEMPLATE: &str = r#"
->parameters
$$$_EVEN_$$$ [0,18446744073709551615]
$$$_ODD_$$$ [0,18446744073709551615]

->local_data
unsigned long long i = 0;
unsigned long long acc = 0;

->body
volatile unsigned long long* buf = (unsigned long long*)(malloc($$$_MEM_BYTES_$$$));
/* alternating data pattern */
for (i = 0; i < $$$_MEM_WORDS_$$$; i += 2) {
    buf[i] = $$$_EVEN_$$$;
    buf[i + 1] = $$$_ODD_$$$;
}
/* read pressure */
for (i = 0; i < $$$_MEM_WORDS_$$$; i += 1) {
    acc += buf[i];
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::quick();

    // Processing phase: lexical/syntax/semantic analysis + parameter
    // extraction (paper §III-D).
    let template = Template::parse(TWO_WORD_TEMPLATE)?;
    let processed = template.process(&HashMap::new())?;
    println!("searched parameters:");
    for p in processed.params() {
        println!("  {} : {:?}", p.name, p.shape);
    }

    // Build an evaluator for the custom template against the platform.
    let dstress = DStress::new(scale, 7);
    let mem_words = scale.dimm_words();
    let env: HashMap<String, BoundValue> = [
        ("MEM_BYTES".to_string(), BoundValue::Scalar(mem_words * 8)),
        ("MEM_WORDS".to_string(), BoundValue::Scalar(mem_words)),
    ]
    .into_iter()
    .collect();
    let evaluator = dstress::VirusEvaluator::new(
        dstress.server_at(60.0)?,
        processed.clone(),
        env.clone(),
        Metric::CeAverage,
        scale.runs_per_virus,
        2,
    );

    // Synthesis phase: a 128-bit chromosome = the two searched words.
    struct TwoWordFitness {
        evaluator: dstress::VirusEvaluator,
    }
    impl Fitness<BitGenome> for TwoWordFitness {
        fn evaluate(&mut self, genome: &BitGenome) -> f64 {
            let words = genome.to_words();
            self.evaluator.fitness_of(
                [
                    ("EVEN".to_string(), BoundValue::Scalar(words[0])),
                    ("ODD".to_string(), BoundValue::Scalar(words[1])),
                ]
                .into(),
            )
        }
    }
    // Each evaluation worker gets its own replica of the evaluator.
    impl ParallelFitness<BitGenome> for TwoWordFitness {
        fn replicate(&self) -> Self {
            TwoWordFitness {
                evaluator: self.evaluator.replicate(),
            }
        }
    }

    println!("\nsearching the two-word pattern space at 60 °C ...");
    let mut engine = GaEngine::new(scale.ga, 11);
    let mut fitness = TwoWordFitness { evaluator };
    let result = engine.run_parallel(1, |rng| BitGenome::random(rng, 128), &mut fitness);
    let words = result.best.to_words();
    println!(
        "best pair: even {:#018x} / odd {:#018x} -> {:.1} CEs/run ({} generations)",
        words[0], words[1], result.best_fitness, result.generations
    );

    // Evaluation phase artifact: render the winning program as source.
    let mut bindings = env;
    bindings.insert("EVEN".into(), BoundValue::Scalar(words[0]));
    bindings.insert("ODD".into(), BoundValue::Scalar(words[1]));
    let program = processed.instantiate(&bindings)?;
    println!(
        "\nthe synthesized virus:\n{}",
        pretty::render_program(&program)
    );
    Ok(())
}
