"""The handlers of the sampled-function verbs: check, extend-sup, extend-amenable and envelope."""

from . import continuation, fileio
from .errors import IsoprodError, MissingOriginError
from .sampled import is_amenable, is_isotone, is_subadditive


def _probes(args) -> list:
    probes = [fileio.parse_point_string(s) for s in args.probe]
    if args.probes:
        probes.extend(fileio.load_points(args.probes))
    if not probes:
        raise IsoprodError("no probes given; use --probe or --probes")
    return probes


def run_check(args, inputs):
    f = fileio.load_recorded(fileio.load_sampled_function, args.function, inputs)
    iso_ok, iso_witness = is_isotone(f)
    verdicts = [{"check": "isotone", "ok": iso_ok,
                 **({"witness": list(map(fileio.format_point, iso_witness))} if iso_witness else {})}]
    try:
        amen_ok, amen_witness = is_amenable(f)
    except MissingOriginError:
        verdicts.append({"check": "amenable", "ok": False, "skipped": "requires the origin as a sample point"})
    else:
        verdicts.append(
            {"check": "amenable", "ok": amen_ok, **({"witness": fileio.format_point(amen_witness)} if amen_witness else {})}
        )
    if iso_ok:
        sub_ok, cert = is_subadditive(f)
        entry = {"check": "subadditive", "ok": sub_ok}
        if cert is not None:
            entry["witness"] = fileio.certificate_jsonable(cert)
        verdicts.append(entry)
    else:
        verdicts.append({"check": "subadditive", "ok": False, "skipped": "requires an isotone function"})
    return verdicts


def run_continuation(args, inputs):
    extend = {"extend-sup": continuation.sup_continuation,
              "extend-amenable": continuation.amenable_isotone_continuation}[args.command]
    f = fileio.load_recorded(fileio.load_sampled_function, args.function, inputs)
    return [
        {"check": f"{args.command}{probe}", "ok": True, "value": fileio.format_rational(extend(f, probe))}
        for probe in _probes(args)
    ]


def run_envelope(args, inputs):
    f = fileio.load_recorded(fileio.load_sampled_function, args.function, inputs)
    probes = _probes(args)
    envelopes = continuation.subadditive_envelopes(f, probes, fileio.parse_rational(args.c))
    return [{"check": f"envelope{probe}", "ok": True, "value": fileio.format_rational(value),
             "certificate": fileio.certificate_jsonable(cert)} for probe, (value, cert) in zip(probes, envelopes)]
