//! The `ompicc` compilation chain (Fig. 2 of the paper):
//!
//! ```text
//! source (.c with OpenMP)
//!   → transformation & analysis      (parse, sema, translate)
//!   → code generation                (host program + GPU kernel files)
//!   → nvcc on each kernel file       (nvccsim, PTX or cubin mode)
//!   → host "executable"              (the lowered host program, run by
//!                                     the interpreter + runtime libraries)
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use minic::{Image, Program};
use nvccsim::BinMode;

use crate::transform::{KernelFile, Pipeline, Translation};

/// Driver error.
#[derive(Debug)]
pub enum OmpiccError {
    Frontend(String),
    Translate(crate::analyze::TransError),
    Nvcc(nvccsim::NvccError),
    Io(std::io::Error),
}

impl std::fmt::Display for OmpiccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OmpiccError::Frontend(m) => write!(f, "ompicc frontend: {m}"),
            OmpiccError::Translate(e) => write!(f, "ompicc: {e}"),
            OmpiccError::Nvcc(e) => write!(f, "ompicc (nvcc): {e}"),
            OmpiccError::Io(e) => write!(f, "ompicc io: {e}"),
        }
    }
}

impl std::error::Error for OmpiccError {}

impl From<crate::analyze::TransError> for OmpiccError {
    fn from(e: crate::analyze::TransError) -> Self {
        OmpiccError::Translate(e)
    }
}

impl From<nvccsim::NvccError> for OmpiccError {
    fn from(e: nvccsim::NvccError) -> Self {
        OmpiccError::Nvcc(e)
    }
}

impl From<std::io::Error> for OmpiccError {
    fn from(e: std::io::Error) -> Self {
        OmpiccError::Io(e)
    }
}

/// A fully compiled application: an OMPi-translated program ([`Ompicc`])
/// or a pure-CUDA baseline ([`CudaCc`]), a host program plus kernel
/// binaries either way.
pub struct CompiledApp {
    /// The lowered, re-analyzed host program, laid out once: every runner
    /// of this app instantiates it and shares its bytecode.
    pub image: Arc<Image>,
    /// Pretty-printed lowered host source (diagnostics / golden tests).
    pub host_text: String,
    /// The outlined OpenMP kernel files (empty for a CUDA baseline).
    pub kernels: Vec<KernelFile>,
    /// Where the kernel binaries were written.
    pub kernel_dir: PathBuf,
    /// Binary mode used.
    pub mode: BinMode,
    /// The one kernel module of a pure-CUDA baseline, through which its
    /// `<<<...>>>` launches resolve; `None` for an OpenMP application.
    pub cuda_module: Option<String>,
}

/// The ompicc driver.
pub struct Ompicc {
    /// Kernel binary mode; the paper's default is cubin.
    pub mode: BinMode,
    /// Working directory: kernel sources land in `<dir>/src`, binaries in
    /// `<dir>/kernels`.
    pub work_dir: PathBuf,
    /// Prefix for outlined kernel module names. Empty for standalone
    /// compiles; the batch server compiles every tenant program into one
    /// shared kernel directory and prefixes each with a unique program id
    /// so two programs' `k0_main` modules cannot collide.
    pub module_prefix: String,
}

impl Ompicc {
    pub fn new(work_dir: impl Into<PathBuf>) -> Ompicc {
        Ompicc { mode: BinMode::Cubin, work_dir: work_dir.into(), module_prefix: String::new() }
    }

    pub fn with_mode(mut self, mode: BinMode) -> Ompicc {
        self.mode = mode;
        self
    }

    /// Namespace this compile's kernel modules (`<prefix>k0_main`, ...).
    pub fn with_module_prefix(mut self, prefix: impl Into<String>) -> Ompicc {
        self.module_prefix = prefix.into();
        self
    }

    pub fn kernel_dir(&self) -> PathBuf {
        self.work_dir.join("kernels")
    }

    /// Compile an OpenMP C source into a runnable application.
    pub fn compile(&self, src: &str) -> Result<CompiledApp, OmpiccError> {
        // Frontend.
        let mut prog = minic::parse(src).map_err(|e| OmpiccError::Frontend(e.to_string()))?;
        minic::analyze(&mut prog).map_err(|e| OmpiccError::Frontend(e.to_string()))?;

        // Transformation.
        let pipeline = Pipeline::new().with_module_prefix(self.module_prefix.clone());
        let (Translation { host, kernels }, _) = pipeline.run(&prog)?;
        let (image, host_text) = host_image(host, "lowered host program")?;

        // Kernel files → .cu on disk → nvcc.
        let src_dir = self.work_dir.join("src");
        std::fs::create_dir_all(&src_dir)?;
        let kdir = self.kernel_dir();
        std::fs::create_dir_all(&kdir)?;
        let nvcc = nvccsim::Nvcc::new(self.mode, &kdir, cudadev::exports());
        for k in &kernels {
            let cu = src_dir.join(format!("{}.cu", k.module_name));
            std::fs::write(&cu, &k.c_text)?;
            nvcc.compile_kernel_file(&cu)?;
        }

        let mode = self.mode;
        Ok(CompiledApp { image, host_text, kernels, kernel_dir: kdir, mode, cuda_module: None })
    }
}

/// Compile a pure CUDA-dialect application (the comparison baseline of the
/// paper's evaluation): `__global__` kernels are compiled into one module,
/// the remaining host code runs with `cudaMalloc`/`cudaMemcpy`/launch
/// hooks.
pub struct CudaCc {
    pub mode: BinMode,
    pub work_dir: PathBuf,
}

impl CudaCc {
    pub fn new(work_dir: impl Into<PathBuf>) -> CudaCc {
        CudaCc { mode: BinMode::Cubin, work_dir: work_dir.into() }
    }

    /// Split the source into device and host parts, compile the device
    /// part, keep the host part for interpretation (this is what the real
    /// nvcc driver does with a `.cu` file). All kernels land in one module,
    /// `name`.
    pub fn compile(&self, src: &str, name: &str) -> Result<CompiledApp, OmpiccError> {
        let mut prog = minic::parse(src).map_err(|e| OmpiccError::Frontend(e.to_string()))?;
        minic::analyze(&mut prog).map_err(|e| OmpiccError::Frontend(e.to_string()))?;

        use minic::ast::Item;
        let mut device_items = Vec::new();
        let mut host_items = Vec::new();
        for item in prog.items {
            match item {
                Item::Func(f) if f.sig.quals.global || f.sig.quals.device => {
                    device_items.push(Item::Func(f))
                }
                other => host_items.push(other),
            }
        }
        // The host part needs prototypes of kernels for launch sites.
        for item in &device_items {
            if let Item::Func(f) = item {
                if f.sig.quals.global {
                    host_items.insert(0, Item::Proto(f.sig.clone()));
                }
            }
        }

        let kdir = self.work_dir.join("kernels");
        std::fs::create_dir_all(&kdir)?;
        let device_prog = Program { items: device_items };
        let cu_text = minic::pretty::program(&device_prog);
        let src_dir = self.work_dir.join("src");
        std::fs::create_dir_all(&src_dir)?;
        std::fs::write(src_dir.join(format!("{name}.cu")), &cu_text)?;
        let nvcc = nvccsim::Nvcc::new(self.mode, &kdir, cudadev::exports());
        nvcc.compile_kernel_source(name, &cu_text)?;

        let (image, host_text) = host_image(Program { items: host_items }, "cuda host program")?;
        Ok(CompiledApp {
            image,
            host_text,
            kernels: Vec::new(),
            kernel_dir: kdir,
            mode: self.mode,
            cuda_module: Some(name.to_string()),
        })
    }
}

/// Analyze a host program (`what` names it in errors), pretty-print it and
/// lay it out once for its runners.
fn host_image(mut host: Program, what: &str) -> Result<(Arc<Image>, String), OmpiccError> {
    let info =
        minic::analyze(&mut host).map_err(|e| OmpiccError::Frontend(format!("{what}: {e}")))?;
    let text = minic::pretty::program(&host);
    let image = Image::new(host, info)
        .map_err(|e| OmpiccError::Frontend(format!("host program layout: {e}")))?;
    Ok((Arc::new(image), text))
}
