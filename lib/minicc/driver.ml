(* mini-C driver: source text -> ELF image.

   Layout: .text at 0x10000 (runtime first, then user functions),
   .rodata (jump tables) at 0x200000, .data (globals) at 0x300000.
   Jump tables need code-label addresses, so assembly runs twice: once to
   place labels, once for real after the .rodata bytes are built. *)

open Riscv

exception Link_error of string

let text_base = 0x10000L
let rodata_base = 0x200000L
let data_base = 0x300000L

type compiled = {
  image : Elfkit.Types.image;
  fn_addrs : (string * int64) list;
}

let arch_string = "rv64imafdc_zicsr_zifencei"

let compile (source : string) : compiled =
  let prog = Cparse.parse_program source in
  (* global environment *)
  let genv =
    { Ccodegen.g_globals = Hashtbl.create 16; g_funcs = Hashtbl.create 16 }
  in
  List.iter
    (fun (f : Cast.func) -> Hashtbl.replace genv.Ccodegen.g_funcs f.Cast.fn_name f)
    prog.Cast.funcs;
  if not (Hashtbl.mem genv.Ccodegen.g_funcs "main") then
    raise (Link_error "no main function");
  (* lay out globals in .data *)
  let data = Buffer.create 256 in
  List.iter
    (fun (g : Cast.global) ->
      let addr = Int64.add data_base (Int64.of_int (Buffer.length data)) in
      Hashtbl.replace genv.Ccodegen.g_globals g.Cast.g_name
        { Ccodegen.gi_label = Ccodegen.global_label g.Cast.g_name;
          gi_ty = g.Cast.g_ty; gi_count = g.Cast.g_count };
      ignore addr;
      for k = 0 to g.Cast.g_count - 1 do
        let v = try List.nth g.Cast.g_init k with _ -> 0L in
        Buffer.add_int64_le data v
      done)
    prog.Cast.globals;
  (* compute global addresses (sequential, same order) *)
  let global_addrs = Hashtbl.create 16 in
  let cursor = ref data_base in
  List.iter
    (fun (g : Cast.global) ->
      Hashtbl.replace global_addrs (Ccodegen.global_label g.Cast.g_name) !cursor;
      cursor := Int64.add !cursor (Int64.of_int (8 * g.Cast.g_count)))
    prog.Cast.globals;
  (* generate code *)
  let tables = ref [] in
  let code_items =
    Runtime.all
    @ List.concat_map
        (fun f ->
          let items, tbls = Ccodegen.gen_func genv f in
          tables := !tables @ tbls;
          items)
        prog.Cast.funcs
  in
  (* table labels live in .rodata: assign offsets now *)
  let table_offsets = Hashtbl.create 8 in
  let ro_cursor = ref 0 in
  List.iter
    (fun (lbl, targets) ->
      Hashtbl.replace table_offsets lbl
        (Int64.add rodata_base (Int64.of_int !ro_cursor));
      ro_cursor := !ro_cursor + (8 * List.length targets))
    !tables;
  let symbols label =
    match Hashtbl.find_opt global_addrs label with
    | Some a -> Some a
    | None -> Hashtbl.find_opt table_offsets label
  in
  let asm = Asm.assemble ~base:text_base ~symbols code_items in
  (* build .rodata: jump-table entries are absolute code addresses *)
  let rodata = Bytes.make (max 8 !ro_cursor) '\000' in
  List.iter
    (fun (lbl, targets) ->
      let base =
        Int64.to_int (Int64.sub (Hashtbl.find table_offsets lbl) rodata_base)
      in
      List.iteri
        (fun k tgt ->
          match Hashtbl.find_opt asm.Asm.labels tgt with
          | Some addr -> Bytes.set_int64_le rodata (base + (8 * k)) addr
          | None -> raise (Link_error ("jump-table target " ^ tgt ^ " undefined")))
        targets)
    !tables;
  (* symbols for functions and globals *)
  let fn_addrs =
    List.filter_map
      (fun (f : Cast.func) ->
        Option.map
          (fun a -> (f.Cast.fn_name, a))
          (Hashtbl.find_opt asm.Asm.labels f.Cast.fn_name))
      prog.Cast.funcs
  in
  let runtime_syms =
    List.filter_map
      (fun name ->
        Option.map
          (fun a -> Elfkit.Types.symbol name a ~sym_section:".text")
          (Hashtbl.find_opt asm.Asm.labels name))
      [ "_start"; "__clock_ns"; "__print_int"; "__print_char" ]
  in
  let elf_symbols =
    runtime_syms
    @ List.map
        (fun (name, addr) ->
          Elfkit.Types.symbol name addr ~sym_section:".text")
        fn_addrs
    @ List.filter_map
        (fun (g : Cast.global) ->
          Option.map
            (fun a ->
              Elfkit.Types.symbol g.Cast.g_name a
                ~sym_type:Elfkit.Types.stt_object ~sym_section:".data")
            (Hashtbl.find_opt global_addrs (Ccodegen.global_label g.Cast.g_name)))
        prog.Cast.globals
  in
  let attrs =
    Elfkit.Attributes.section_of
      { Elfkit.Attributes.empty with
        arch = Some arch_string;
        stack_align = Some 16 }
  in
  let sections =
    [
      Elfkit.Types.section ".text" asm.Asm.code ~s_addr:text_base
        ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr) ~s_addralign:4;
      Elfkit.Types.section ".rodata" rodata ~s_addr:rodata_base
        ~s_flags:Elfkit.Types.shf_alloc ~s_addralign:8;
      Elfkit.Types.section ".data"
        (if Buffer.length data = 0 then Bytes.make 8 '\000'
         else Buffer.to_bytes data)
        ~s_addr:data_base
        ~s_flags:Elfkit.Types.(shf_alloc lor shf_write)
        ~s_addralign:8;
      attrs;
    ]
  in
  let image =
    Elfkit.Types.image ~machine:Elfkit.Types.em_riscv ~entry:text_base
      ~e_flags:Elfkit.Types.(ef_riscv_rvc lor ef_riscv_float_abi_double)
      ~symbols:elf_symbols sections
  in
  { image; fn_addrs }

(* compile and run directly in the simulator *)
let run ?(max_steps = 500_000_000) (source : string) =
  let c = compile source in
  let p = Rvsim.Loader.load c.image in
  Rvsim.Loader.run ~max_steps p
