"""Command line interface.

Subcommands: induce, tree, enumerate, generate, eval. Exit codes:
0 success, 1 usage error, 2 unsupported grammar, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import InternalInvariantError, UnsupportedGrammarError
from .evaluation import (
    DEFAULT_RUNS,
    DEFAULT_SAMPLE_SIZES,
    ExperimentConfig,
    format_report,
    run_experiment,
)
from .grammar import DEFAULT_CAP, enumerate_language, generate_sentences, parse_tracery, to_tracery
from .induction import DEFAULT_RATIO, induce_grammar
from .tree import format_tree, learn_template_tree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSUPPORTED = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gramtree", description="Induce generative grammars from example sentences.")
    sub = parser.add_subparsers(dest="command", required=True)

    induce = sub.add_parser("induce", parents=[], help="induce a Tracery grammar from a corpus")
    induce.add_argument("corpus", type=Path, help="text file, one sentence per line")
    induce.add_argument("--ratio", type=float, default=DEFAULT_RATIO, help="slot-merge Jaccard threshold")
    induce.add_argument("--max-height", type=int, default=None, help="template tree height bound")
    induce.add_argument("--out", type=Path, default=None, help="write grammar JSON here instead of stdout")

    tree = sub.add_parser("tree", help="dump the learned template tree")
    tree.add_argument("corpus", type=Path)
    tree.add_argument("--max-height", type=int, default=None)
    tree.add_argument("--ascii", action="store_true", help="print slots as <A> instead of ⟨A⟩")

    enum = sub.add_parser("enumerate", help="print a grammar's language, sorted")
    enum.add_argument("grammar", type=Path, help="Tracery JSON grammar")
    enum.add_argument("--cap", type=int, default=DEFAULT_CAP)

    gen = sub.add_parser("generate", help="print seeded random sentences")
    gen.add_argument("grammar", type=Path)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, default=1)

    ev = sub.add_parser("eval", help="reverse-engineering experiment report")
    ev.add_argument("grammar", type=Path)
    ev.add_argument("--sizes", type=str, default=",".join(str(s) for s in DEFAULT_SAMPLE_SIZES))
    ev.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    ev.add_argument("--ratio", type=float, default=DEFAULT_RATIO)
    ev.add_argument("--max-height", type=int, default=None)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--cap", type=int, default=DEFAULT_CAP)
    ev.add_argument("--format", choices=("csv", "json", "markdown"), default="markdown")
    return parser


def _read_corpus(path: Path) -> list[str]:
    lines = [line.strip() for line in path.read_text(encoding="utf-8-sig").splitlines()]
    corpus = [line for line in lines if line]
    if not corpus:
        raise ValueError("corpus is empty")
    return corpus


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except UnsupportedGrammarError as exc:
        print(f"gramtree: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InternalInvariantError as exc:
        print(f"gramtree: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, ValueError) as exc:
        print(f"gramtree: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "induce":
        corpus = _read_corpus(args.corpus)
        grammar = induce_grammar(corpus, ratio=args.ratio, max_height=args.max_height)
        text = to_tracery(grammar)
        if args.out is None:
            print(text)
        else:
            args.out.write_text(text + "\n", encoding="utf-8")
        return EXIT_OK

    if args.command == "tree":
        corpus = _read_corpus(args.corpus)
        root = learn_template_tree(corpus, max_height=args.max_height)
        print(format_tree(root, ascii_slots=args.ascii))
        return EXIT_OK

    if args.command == "enumerate":
        grammar = parse_tracery(args.grammar.read_text(encoding="utf-8-sig"))
        language = enumerate_language(grammar, cap=args.cap)
        for sentence in sorted(language.sentences):
            print(sentence)
        if language.truncated:
            print(f"gramtree: enumeration truncated at cap {args.cap}", file=sys.stderr)
        return EXIT_OK

    if args.command == "generate":
        grammar = parse_tracery(args.grammar.read_text(encoding="utf-8-sig"))
        for sentence in generate_sentences(grammar, args.seed, args.count):
            print(sentence)
        return EXIT_OK

    if args.command == "eval":
        grammar = parse_tracery(args.grammar.read_text(encoding="utf-8-sig"))
        try:
            sizes = tuple(int(part) for part in args.sizes.split(",") if part.strip())
        except ValueError:
            print(f"gramtree: bad --sizes value: {args.sizes!r}", file=sys.stderr)
            return EXIT_USAGE
        config = ExperimentConfig(
            sample_sizes=sizes,
            runs=args.runs,
            ratio=args.ratio,
            max_height=args.max_height,
            seed=args.seed,
            cap=args.cap,
        )
        report = run_experiment(grammar, config, name=args.grammar.stem)
        print(format_report(report, args.format))
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
