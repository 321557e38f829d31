//! Experiment drivers: one module per table/figure of the paper's
//! evaluation section (see DESIGN.md §5 for the index and EXPERIMENTS.md
//! for paper-vs-measured results).

pub mod ablation;
pub mod efficiency;
pub mod fig01b;
pub mod fig02;
pub mod fig08;
pub mod fig09_fig10;
pub mod fig11_fig12;
pub mod fig14;
pub mod ga_params;
pub mod march_comparison;
pub mod retention;
pub mod rowhammer;
pub mod sdc;
