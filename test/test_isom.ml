(* The isom object-file suite.

   What must hold, in order of importance:

   1. Separate compilation is *bit-identical* to whole-program
      compilation — same IR, same HLO report, same decision journal —
      for hand-written programs, for all suite workloads, and for
      random programs (qcheck).
   2. Loading is fail-safe: truncation, bit flips, wrong magic,
      foreign versions and manifest corruption all degrade to
      recompilation, never to a crash or a wrong program.
   3. The incremental planner recompiles exactly what changed: nothing
      on a warm rebuild, one module when its source changes, and
      dependents (reason [ext-changed]) when an interface they
      reference changes — and only then.
   4. Profile fragments merged across a relink reproduce the trained
      profile's effect on HLO exactly. *)

module U = Ucode.Types
module Codec = Isom.Codec
module File = Isom.File
module Build = Isom.Build
module Manifest = Isom.Manifest

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_tmp_dir f =
  let dir = Filename.temp_file "isom_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let source = Minic.Compile.source

(* A two-module program exercising the cross-module surface isoms must
   preserve: exported/static routines, exported/static globals with
   array and scalar flavors, direct and indirect calls, recursion. *)
let lib_src =
  {|
  public global table[4];
  public global seed = 7;
  global hidden = 3;

  static func twice(x) { return x + x; }

  func mix(a, b) { return twice(a) ^ (b * hidden); }

  func fill(n) {
    var i = 0;
    while (i < 4) { table[i] = mix(i, n); i = i + 1; }
    return table[n & 3];
  }
|}

let app_src =
  {|
  func apply(f, x) { return f(x); }

  static func succ(x) { return x + 1; }

  func main() {
    var r = fill(seed & 3) + mix(2, 3);
    r = r + apply(&succ, 40);
    print_int(r);
    return r & 255;
  }
|}

(* lib with [mix]'s arity changed — an interface change app *does*
   reference (the resulting arity mismatch at app's call site is a
   warning, not an error). *)
let lib_src_mix3 =
  {|
  public global table[4];
  public global seed = 7;
  global hidden = 3;

  static func twice(x) { return x + x; }

  func mix(a, b, c) { return twice(a) ^ (b * hidden); }

  func fill(n) {
    var i = 0;
    while (i < 4) { table[i] = mix(i, n, 0); i = i + 1; }
    return table[n & 3];
  }
|}

let two_module_sources =
  [ source ~module_name:"lib" lib_src; source ~module_name:"app" app_src ]

let compile_separately ?main sources =
  let isoms, _diags =
    Build.compile_inputs (List.map (fun s -> Build.Src s) sources)
  in
  (isoms, Build.link ?main isoms)

(* ------------------------------------------------------------------ *)
(* Codec primitives.                                                   *)

let test_codec_roundtrip () =
  let buf = Buffer.create 64 in
  let ints = [ 0; 1; -1; 42; max_int; min_int ] in
  List.iter (Codec.put_int buf) ints;
  Codec.put_int64 buf Int64.min_int;
  Codec.put_float buf 3.141592653589793;
  Codec.put_float buf (-0.0);
  Codec.put_float buf infinity;
  Codec.put_bool buf true;
  Codec.put_bool buf false;
  Codec.put_string buf "";
  Codec.put_string buf "héllo\nworld\000!";
  Codec.put_list buf Codec.put_int [ 3; 1; 4 ];
  Codec.put_option buf Codec.put_string None;
  Codec.put_option buf Codec.put_string (Some "x");
  Codec.put_tag buf 255;
  let r = Codec.reader (Buffer.contents buf) in
  List.iter (fun n -> check_int "int" n (Codec.get_int r)) ints;
  Alcotest.(check int64) "int64" Int64.min_int (Codec.get_int64 r);
  Alcotest.(check (float 0.0)) "float" 3.141592653589793 (Codec.get_float r);
  check_bool "neg zero sign" true (1.0 /. Codec.get_float r < 0.0);
  Alcotest.(check (float 0.0)) "inf" infinity (Codec.get_float r);
  check_bool "true" true (Codec.get_bool r);
  check_bool "false" false (Codec.get_bool r);
  check_string "empty string" "" (Codec.get_string r);
  check_string "string" "héllo\nworld\000!" (Codec.get_string r);
  Alcotest.(check (list int)) "list" [ 3; 1; 4 ] (Codec.get_list r Codec.get_int);
  Alcotest.(check (option string)) "none" None
    (Codec.get_option r Codec.get_string);
  Alcotest.(check (option string)) "some" (Some "x")
    (Codec.get_option r Codec.get_string);
  check_int "tag" 255 (Codec.get_tag r);
  check_bool "all consumed" true (Codec.at_end r)

let expect_corrupt name (f : unit -> unit) =
  match f () with
  | () -> Alcotest.fail (name ^ ": expected Codec.Corrupt")
  | exception Codec.Corrupt _ -> ()

let test_codec_rejects_corruption () =
  expect_corrupt "eof int" (fun () ->
      ignore (Codec.get_int (Codec.reader "abc")));
  expect_corrupt "bad bool" (fun () ->
      ignore (Codec.get_bool (Codec.reader "\002")));
  (* A string length far beyond the remaining bytes must be rejected
     before any allocation happens. *)
  let buf = Buffer.create 16 in
  Codec.put_int buf 1_000_000;
  Buffer.add_string buf "xy";
  expect_corrupt "oversized string" (fun () ->
      ignore (Codec.get_string (Codec.reader (Buffer.contents buf))));
  let buf = Buffer.create 16 in
  Codec.put_int buf (-1);
  expect_corrupt "negative count" (fun () ->
      ignore (Codec.get_list (Codec.reader (Buffer.contents buf)) Codec.get_int))

(* ------------------------------------------------------------------ *)
(* The shared store container.                                         *)

let test_store_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "x.store" in
  let payload = "arbitrary \000 binary\npayload" in
  Alcotest.(check (result unit string))
    "save" (Ok ())
    (Store.save ~path ~magic:"test-store" ~version:3 payload);
  Alcotest.(check (result (option string) string))
    "load" (Ok (Some payload))
    (Store.load ~path ~magic:"test-store" ~version:3);
  Alcotest.(check (result (option string) string))
    "missing file is Ok None" (Ok None)
    (Store.load ~path:(Filename.concat dir "nope") ~magic:"test-store"
       ~version:3)

let test_store_fail_safe () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "x.store" in
  let is_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": expected Error")
  in
  (match Store.save ~path ~magic:"test-store" ~version:3 "payload" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  is_error "wrong magic" (Store.load ~path ~magic:"other" ~version:3);
  is_error "wrong version" (Store.load ~path ~magic:"test-store" ~version:4);
  (* Flip a payload byte: the checksum must catch it. *)
  let contents =
    In_channel.with_open_bin path (fun ic ->
        In_channel.input_all ic)
  in
  let flipped = Bytes.of_string contents in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 1));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc flipped);
  is_error "flipped byte" (Store.load ~path ~magic:"test-store" ~version:3);
  (* Truncation. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub contents 0 (last - 3)));
  is_error "truncated" (Store.load ~path ~magic:"test-store" ~version:3);
  (* Garbage. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "not a store file at all");
  is_error "garbage" (Store.load ~path ~magic:"test-store" ~version:3)

(* ------------------------------------------------------------------ *)
(* Isom file roundtrip and fail-safe reads.                            *)

let build_isoms sources =
  fst (Build.compile_inputs (List.map (fun s -> Build.Src s) sources))

let test_isom_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let isoms = build_isoms two_module_sources in
  List.iter
    (fun isom ->
      let path = Filename.concat dir (File.file_name (File.name isom)) in
      (match File.write ~path isom with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      match File.read ~path with
      | Error m -> Alcotest.fail m
      | Ok got ->
        check_string "module name" (File.name isom) (File.name got);
        check_bool "identical after roundtrip" true (isom = got))
    isoms

let test_isom_read_fail_safe () =
  with_tmp_dir @@ fun dir ->
  let isoms = build_isoms two_module_sources in
  let isom = List.hd isoms in
  let path = Filename.concat dir "m.isom" in
  (match File.write ~path isom with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let contents =
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  in
  let write s =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
  in
  let is_error what =
    match File.read ~path with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": expected Error")
  in
  write (String.sub contents 0 (String.length contents / 2));
  is_error "truncated";
  let flipped = Bytes.of_string contents in
  let mid = Bytes.length flipped / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 255));
  write (Bytes.to_string flipped);
  is_error "flipped byte";
  write ("wrong-magic" ^ String.sub contents (String.length File.magic)
           (String.length contents - String.length File.magic));
  is_error "wrong magic";
  write "";
  is_error "empty file";
  (match File.read ~path:(Filename.concat dir "absent.isom") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file: expected Error");
  (* And an honest write still reads back after all that. *)
  write contents;
  match File.read ~path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Separate vs whole-program bit-identity.                             *)

type run_result = { rr_ir : string; rr_report : string; rr_journal : string }

let journal_of collector =
  String.concat "\n"
    (List.map
       (fun (d : Telemetry.Event.decision) ->
         Printf.sprintf "%s %s %s %s %d %.6g %d"
           (Telemetry.Event.kind_name d.Telemetry.Event.d_kind)
           (match d.Telemetry.Event.d_verdict with
           | Telemetry.Event.Accepted -> "accepted"
           | Telemetry.Event.Rejected r -> "rejected(" ^ r ^ ")")
           d.Telemetry.Event.d_subject d.Telemetry.Event.d_context
           d.Telemetry.Event.d_site d.Telemetry.Event.d_score
           d.Telemetry.Event.d_pass)
       (Telemetry.Collector.decisions collector))

let hlo_result program ~profile =
  let collector = Telemetry.Collector.create () in
  Telemetry.Collector.install collector;
  Fun.protect ~finally:Telemetry.Collector.uninstall @@ fun () ->
  let config = { Hlo.Config.default with Hlo.Config.validate = true } in
  let res = Hlo.Driver.run ~config ~profile program in
  { rr_ir = Ucode.Pp.program_to_string res.Hlo.Driver.program;
    rr_report = Fmt.str "%a" Hlo.Report.pp res.Hlo.Driver.report;
    rr_journal = journal_of collector }

let check_same_result what (a : run_result) (b : run_result) =
  check_string (what ^ ": IR") a.rr_ir b.rr_ir;
  check_string (what ^ ": report") a.rr_report b.rr_report;
  check_string (what ^ ": journal") a.rr_journal b.rr_journal

let separate_equals_whole ?main what sources =
  let whole, _ = Minic.Compile.compile_program ?main sources in
  let _isoms, (linked, _maps, seed) = compile_separately ?main sources in
  check_string
    (what ^ ": linked IR")
    (Ucode.Pp.program_to_string whole)
    (Ucode.Pp.program_to_string linked);
  check_bool (what ^ ": fresh isoms carry no profile") true (seed = None);
  let profile = (Interp.train whole).Interp.profile in
  check_same_result what (hlo_result whole ~profile)
    (hlo_result linked ~profile)

let test_separate_equals_whole_two_modules () =
  separate_equals_whole "two modules" two_module_sources

let test_separate_equals_whole_workloads () =
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      let sources =
        Workloads.Suite.sources b ~input:Workloads.Suite.Train
      in
      separate_equals_whole b.Workloads.Suite.b_name sources)
    Workloads.Suite.all

(* Roundtripping the isoms through disk must change nothing. *)
let test_link_from_disk_equals_whole () =
  with_tmp_dir @@ fun dir ->
  let isoms = build_isoms two_module_sources in
  let reread =
    List.map
      (fun isom ->
        let path = Filename.concat dir (File.file_name (File.name isom)) in
        (match File.write ~path isom with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
        match File.read ~path with
        | Ok i -> i
        | Error m -> Alcotest.fail m)
      isoms
  in
  let whole, _ = Minic.Compile.compile_program two_module_sources in
  let linked, _, _ = Build.link reread in
  check_string "disk roundtrip IR"
    (Ucode.Pp.program_to_string whole)
    (Ucode.Pp.program_to_string linked)

(* ------------------------------------------------------------------ *)
(* Incremental builds.                                                 *)

let counters_of collector =
  let c = Telemetry.Collector.counters collector in
  fun name -> int_of_float (Telemetry.Counters.get c name)

let with_collector f =
  let collector = Telemetry.Collector.create () in
  Telemetry.Collector.install collector;
  Fun.protect ~finally:Telemetry.Collector.uninstall (fun () -> f collector)

let test_incremental_warm_rebuild () =
  with_tmp_dir @@ fun dir ->
  let _isoms, _diags, cold = Build.compile_incremental ~dir two_module_sources in
  check_int "cold: all recompiled" 2 (List.length cold.Build.s_recompiled);
  with_collector @@ fun collector ->
  let isoms, _diags, warm = Build.compile_incremental ~dir two_module_sources in
  check_int "warm: all reused" 2 (List.length warm.Build.s_reused);
  check_int "warm: none recompiled" 0 (List.length warm.Build.s_recompiled);
  let count = counters_of collector in
  check_int "hit counter" 2 (count "isom.manifest.hit");
  check_int "miss counter" 0 (count "isom.manifest.miss");
  let whole, _ = Minic.Compile.compile_program two_module_sources in
  let linked, _, _ = Build.link isoms in
  check_string "warm IR = whole IR"
    (Ucode.Pp.program_to_string whole)
    (Ucode.Pp.program_to_string linked)

let test_incremental_one_dirty_module () =
  with_tmp_dir @@ fun dir ->
  let _ = Build.compile_incremental ~dir two_module_sources in
  (* Change app's body without touching its exports: lib must be
     reused, app recompiled for reason source-changed. *)
  let app' =
    source ~module_name:"app"
      (app_src ^ "\nstatic func unused_extra(x) { return x - 1; }")
  in
  let sources' = [ List.hd two_module_sources; app' ] in
  with_collector @@ fun collector ->
  let isoms, _diags, st = Build.compile_incremental ~dir sources' in
  Alcotest.(check (list string)) "reused" [ "lib" ] st.Build.s_reused;
  Alcotest.(check (list (pair string string)))
    "recompiled" [ ("app", "source-changed") ] st.Build.s_recompiled;
  let count = counters_of collector in
  check_int "hit counter" 1 (count "isom.manifest.hit");
  check_int "source-changed counter" 1 (count "isom.recompile.source-changed");
  let whole, _ = Minic.Compile.compile_program sources' in
  let linked, _, _ = Build.link isoms in
  check_string "one-dirty IR = whole IR"
    (Ucode.Pp.program_to_string whole)
    (Ucode.Pp.program_to_string linked)

let test_incremental_export_change_invalidates_dependents () =
  with_tmp_dir @@ fun dir ->
  let _ = Build.compile_incremental ~dir two_module_sources in
  (* Change the arity of [mix], which app calls: app's source is
     unchanged, but the interface slice it was compiled against is
     not, so it must be recompiled with reason ext-changed.  (The
     arity mismatch at app's call site is a warning, not an error.) *)
  let lib' = source ~module_name:"lib" lib_src_mix3 in
  let sources' = [ lib'; List.nth two_module_sources 1 ] in
  with_collector @@ fun collector ->
  let isoms, _diags, st = Build.compile_incremental ~dir sources' in
  Alcotest.(check (list (pair string string)))
    "recompiled"
    [ ("lib", "source-changed"); ("app", "ext-changed") ]
    st.Build.s_recompiled;
  let count = counters_of collector in
  check_int "ext-changed counter" 1 (count "isom.recompile.ext-changed");
  let whole, _ = Minic.Compile.compile_program sources' in
  let linked, _, _ = Build.link isoms in
  check_string "ext-change IR = whole IR"
    (Ucode.Pp.program_to_string whole)
    (Ucode.Pp.program_to_string linked)

let test_incremental_unreferenced_export_keeps_dependents () =
  with_tmp_dir @@ fun dir ->
  let _ = Build.compile_incremental ~dir two_module_sources in
  (* Add an export app never mentions: only lib rebuilds.  The
     invalidation key hashes the *referenced* slice of the export
     environment, so unrelated interface growth does not cascade. *)
  let lib' =
    source ~module_name:"lib" (lib_src ^ "\nfunc extra(x) { return x; }")
  in
  let sources' = [ lib'; List.nth two_module_sources 1 ] in
  let isoms, _diags, st = Build.compile_incremental ~dir sources' in
  Alcotest.(check (list string)) "reused" [ "app" ] st.Build.s_reused;
  Alcotest.(check (list (pair string string)))
    "recompiled" [ ("lib", "source-changed") ] st.Build.s_recompiled;
  let whole, _ = Minic.Compile.compile_program sources' in
  let linked, _, _ = Build.link isoms in
  check_string "unreferenced-export IR = whole IR"
    (Ucode.Pp.program_to_string whole)
    (Ucode.Pp.program_to_string linked)

let test_incremental_corrupt_manifest_degrades () =
  with_tmp_dir @@ fun dir ->
  let _ = Build.compile_incremental ~dir two_module_sources in
  Out_channel.with_open_bin (Filename.concat dir Manifest.file_name)
    (fun oc -> Out_channel.output_string oc "scrambled");
  with_collector @@ fun collector ->
  let _isoms, _diags, st = Build.compile_incremental ~dir two_module_sources in
  check_int "all recompiled" 2 (List.length st.Build.s_recompiled);
  let count = counters_of collector in
  check_int "corrupt counter" 1 (count "isom.manifest.corrupt");
  (* The rebuild repaired the manifest. *)
  let _isoms, _diags, st = Build.compile_incremental ~dir two_module_sources in
  check_int "repaired: all reused" 2 (List.length st.Build.s_reused)

let test_incremental_corrupt_isom_degrades () =
  with_tmp_dir @@ fun dir ->
  let _ = Build.compile_incremental ~dir two_module_sources in
  let path = Filename.concat dir (File.file_name "lib") in
  let contents =
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub contents 0 (String.length contents / 3)));
  with_collector @@ fun collector ->
  let isoms, _diags, st = Build.compile_incremental ~dir two_module_sources in
  Alcotest.(check (list (pair string string)))
    "only the corrupt module recompiles"
    [ ("lib", "unreadable") ] st.Build.s_recompiled;
  check_int "unreadable counter" 1
    (counters_of collector "isom.recompile.unreadable");
  let whole, _ = Minic.Compile.compile_program two_module_sources in
  let linked, _, _ = Build.link isoms in
  check_string "recovered IR = whole IR"
    (Ucode.Pp.program_to_string whole)
    (Ucode.Pp.program_to_string linked)

(* ------------------------------------------------------------------ *)
(* Stale-interface detection at link time.                             *)

let test_link_rejects_stale_interface () =
  let isoms_v1 = build_isoms two_module_sources in
  let lib' = source ~module_name:"lib" lib_src_mix3 in
  let isoms_v2 =
    build_isoms [ lib'; List.nth two_module_sources 1 ]
  in
  (* New lib (mix's arity changed) + old app (compiled against the old
     arity): the interface slice app references no longer matches. *)
  let mixed = [ List.hd isoms_v2; List.nth isoms_v1 1 ] in
  match Build.link mixed with
  | _ -> Alcotest.fail "expected Link_error for stale interface"
  | exception Ucode.Linker.Link_error msg ->
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    check_bool "names the stale module" true (contains msg "module app")

(* The flip side: growing lib's interface with an export app never
   references keeps old app isoms linkable — the check is per-module
   over referenced names, not a whole-environment fingerprint. *)
let test_link_accepts_compatible_interface_growth () =
  let isoms_v1 = build_isoms two_module_sources in
  let lib' =
    source ~module_name:"lib" (lib_src ^ "\nfunc extra(x) { return x; }")
  in
  let isoms_v2 = build_isoms [ lib'; List.nth two_module_sources 1 ] in
  let mixed = [ List.hd isoms_v2; List.nth isoms_v1 1 ] in
  let whole, _ =
    Minic.Compile.compile_program [ lib'; List.nth two_module_sources 1 ]
  in
  let linked, _, _ = Build.link mixed in
  check_string "grown-interface IR = whole IR"
    (Ucode.Pp.program_to_string whole)
    (Ucode.Pp.program_to_string linked)

(* ------------------------------------------------------------------ *)
(* Profile fragments.                                                  *)

let test_fragments_reproduce_trained_profile () =
  with_tmp_dir @@ fun dir ->
  let isoms, _diags, _st = Build.compile_incremental ~dir two_module_sources in
  let program, maps, seed = Build.link isoms in
  check_bool "no fragments yet" true (seed = None);
  let profile = (Interp.train program).Interp.profile in
  let paired =
    List.map
      (fun i -> (Filename.concat dir (File.file_name (File.name i)), i))
      isoms
  in
  (match Build.write_fragments paired ~maps ~profile with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* Reload and relink: every module now carries a fragment, so the
     link must produce a merged profile whose effect on HLO is
     identical to the trained one. *)
  let reread =
    List.map
      (fun (path, _) ->
        match File.read ~path with
        | Ok i -> i
        | Error m -> Alcotest.fail m)
      paired
  in
  let program', _maps', seed' = Build.link reread in
  check_string "relink IR unchanged"
    (Ucode.Pp.program_to_string program)
    (Ucode.Pp.program_to_string program');
  match seed' with
  | None -> Alcotest.fail "expected a merged profile"
  | Some merged ->
    check_same_result "merged vs trained"
      (hlo_result program ~profile)
      (hlo_result program' ~profile:merged)

let test_partial_fragments_are_discarded () =
  with_tmp_dir @@ fun dir ->
  let isoms, _diags, _st = Build.compile_incremental ~dir two_module_sources in
  let program, maps, _ = Build.link isoms in
  let profile = (Interp.train program).Interp.profile in
  let paired =
    List.map
      (fun i -> (Filename.concat dir (File.file_name (File.name i)), i))
      isoms
  in
  (match Build.write_fragments paired ~maps ~profile with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* Dirty one module: its rebuilt isom has an empty fragment, so the
     all-or-nothing rule must discard the seed entirely. *)
  let app' =
    source ~module_name:"app"
      (app_src ^ "\nstatic func unused_extra(x) { return x - 1; }")
  in
  let isoms', _diags, st =
    Build.compile_incremental ~dir [ List.hd two_module_sources; app' ]
  in
  Alcotest.(check (list string)) "lib reused" [ "lib" ] st.Build.s_reused;
  let _program', _maps', seed' = Build.link isoms' in
  check_bool "partial fragments discarded" true (seed' = None)

(* ------------------------------------------------------------------ *)
(* qcheck: random programs compile identically through isoms.          *)

let prop_separate_equals_whole =
  QCheck.Test.make ~count:30
    ~name:"random programs: isom separate compile + link = whole-program"
    Prog_gen.arbitrary_sources (fun sources ->
      let whole, _ = Minic.Compile.compile_program sources in
      let isoms, _ =
        Build.compile_inputs (List.map (fun s -> Build.Src s) sources)
      in
      (* In-memory write/read roundtrip for every module. *)
      List.iter
        (fun isom ->
          match File.decode (File.encode isom) with
          | Ok got ->
            if got <> isom then
              QCheck.Test.fail_report "isom codec roundtrip changed the module"
          | Error m -> QCheck.Test.fail_report ("decode failed: " ^ m))
        isoms;
      let linked, _, _ = Build.link isoms in
      Ucode.Pp.program_to_string whole = Ucode.Pp.program_to_string linked)

(* ------------------------------------------------------------------ *)
(* qcheck: mutated isom payloads decode to a value.                    *)

(* Byte-level fuzzing of the payload decoder: encode every module of
   the workloads, apply a few random byte mutations, and require
   [File.decode] to answer [Ok] or [Error], never to raise.  [Bump]
   moves a byte by a small amount, so counts, lengths and tags land on
   nearby, often still plausible, values. *)

type payload_mutation =
  | Flip of int * int  (** byte position, bit *)
  | Bump of int * int  (** byte position, delta *)
  | Truncate of int
  | Append of string

let workload_payloads =
  lazy
    (Array.of_list
       (List.concat_map
          (fun b ->
            List.map File.encode
              (build_isoms
                 (Workloads.Suite.sources b ~input:Workloads.Suite.Train)))
          Workloads.Suite.all))

let mutate_payload payload m =
  let n = String.length payload in
  let set i f =
    let b = Bytes.of_string payload in
    Bytes.set b i (Char.chr (f (Char.code payload.[i]) land 255));
    Bytes.to_string b
  in
  match m with
  | Flip (pos, bit) when n > 0 -> set (pos mod n) (fun c -> c lxor (1 lsl bit))
  | Bump (pos, d) when n > 0 -> set (pos mod n) (fun c -> c + d)
  | Flip _ | Bump _ -> payload
  | Truncate pos -> String.sub payload 0 (pos mod (n + 1))
  | Append tail -> payload ^ tail

let print_payload_mutation = function
  | Flip (pos, bit) -> Printf.sprintf "flip %d.%d" pos bit
  | Bump (pos, d) -> Printf.sprintf "bump %d %+d" pos d
  | Truncate pos -> Printf.sprintf "truncate %d" pos
  | Append tail -> Printf.sprintf "append %S" tail

let gen_payload_mutation =
  let open QCheck.Gen in
  let pos = int_bound 1_000_000 in
  frequency
    [ (3, map2 (fun p b -> Flip (p, b)) pos (int_bound 7));
      (3, map2 (fun p d -> Bump (p, d)) pos (oneofl [ -2; -1; 1; 2 ]));
      (1, map (fun p -> Truncate p) pos);
      (1, map (fun s -> Append s) (string_size ~gen:char (int_range 0 8))) ]

let prop_mutated_payload_decodes =
  QCheck.Test.make ~count:1000 ~name:"mutated isom payloads decode to a value"
    (QCheck.make
       ~print:(fun (k, ms) ->
         Printf.sprintf "payload %d: %s" k
           (String.concat "; " (List.map print_payload_mutation ms)))
       QCheck.Gen.(
         pair (int_bound 1_000_000)
           (list_size (int_range 1 3) gen_payload_mutation)))
    (fun (k, mutations) ->
      let payloads = Lazy.force workload_payloads in
      let payload = payloads.(k mod Array.length payloads) in
      let bytes = List.fold_left mutate_payload payload mutations in
      match File.decode bytes with
      | Ok _ -> true
      | Error m when bytes = payload ->
        QCheck.Test.fail_report ("the unmutated payload failed: " ^ m)
      | Error _ -> true
      | exception e ->
        QCheck.Test.fail_report
          (Printf.sprintf "decode raised %s" (Printexc.to_string e)))

let () =
  Alcotest.run "isom"
    [ ( "codec",
        [ Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick
            test_codec_rejects_corruption ] );
      ( "store",
        [ Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "fail-safe" `Quick test_store_fail_safe ] );
      ( "file",
        [ Alcotest.test_case "roundtrip" `Quick test_isom_roundtrip;
          Alcotest.test_case "fail-safe reads" `Quick
            test_isom_read_fail_safe ] );
      ( "bit-identity",
        [ Alcotest.test_case "two modules" `Quick
            test_separate_equals_whole_two_modules;
          Alcotest.test_case "all workloads" `Slow
            test_separate_equals_whole_workloads;
          Alcotest.test_case "disk roundtrip" `Quick
            test_link_from_disk_equals_whole ] );
      ( "incremental",
        [ Alcotest.test_case "warm rebuild reuses everything" `Quick
            test_incremental_warm_rebuild;
          Alcotest.test_case "one dirty module" `Quick
            test_incremental_one_dirty_module;
          Alcotest.test_case "export change invalidates dependents" `Quick
            test_incremental_export_change_invalidates_dependents;
          Alcotest.test_case "unreferenced export keeps dependents" `Quick
            test_incremental_unreferenced_export_keeps_dependents;
          Alcotest.test_case "corrupt manifest degrades" `Quick
            test_incremental_corrupt_manifest_degrades;
          Alcotest.test_case "corrupt isom degrades" `Quick
            test_incremental_corrupt_isom_degrades ] );
      ( "link",
        [ Alcotest.test_case "stale interface rejected" `Quick
            test_link_rejects_stale_interface;
          Alcotest.test_case "compatible interface growth accepted" `Quick
            test_link_accepts_compatible_interface_growth ] );
      ( "profile-fragments",
        [ Alcotest.test_case "merge reproduces training" `Quick
            test_fragments_reproduce_trained_profile;
          Alcotest.test_case "partial fragments discarded" `Quick
            test_partial_fragments_are_discarded ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_separate_equals_whole;
          QCheck_alcotest.to_alcotest prop_mutated_payload_decodes ] ) ]
