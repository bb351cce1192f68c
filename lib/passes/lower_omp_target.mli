(** "lower omp target region" (paper, Section 3): rewrites omp.target into
    device.kernel_create / kernel_launch / kernel_wait and outlines each
    kernel region into a func.func inside a nested builtin.module with
    [target = "fpga"] (the paper's Listing 2). Free values of the region
    beyond its block arguments become extra kernel arguments. Kernels are
    named [<enclosing function>_kernel_<n>], numbered from 1 within each
    [run]. *)

val run : Ftn_ir.Op.t -> Ftn_ir.Op.t
val pass : Ftn_ir.Pass.t
